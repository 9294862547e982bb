// Modeled-clock metrics of one replay.
#pragma once

#include <string>
#include <vector>

#include "replay.h"

namespace svbench {

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// Modeled cycles as milliseconds of the modeled machine.
double CyclesToMs(double cycles);

// 100 * part / whole, or 0 when whole is 0.
double Pct(double part, double whole);

// Modeled quantities and counts of one replay: every modeled end-to-end
// metric that does not need per-cycle pauses, and every per-layer count.
// Per-tenant values are summed over the tenants. The tenants of a fleet
// share one machine, kernel and physical memory, so machine-wide values are
// read once. Deterministic for a deterministic workload.
std::vector<Metric> ModelMetrics(const Replay& replay);

}  // namespace svbench
