// The benchmark's workloads and one replay of each.
//
// A replay builds a fresh simulated machine and its tenants through the
// simulator's public entry points (workloads::MakeTenant, Workload::Setup /
// Iterate, workloads::HarvestTenant, fleet::RunFleet), runs a fixed number of
// operations, and times set-up and the operation loop on the host clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_runner.h"
#include "workloads/runner.h"

namespace svbench {

class SpanLog;

struct WorkloadSpec {
  std::string name;
  svagc::workloads::RunConfig run;  // collector, heap, GC threads, options
  unsigned iterations = 0;          // Iterate calls per tenant and replay
  unsigned tiny_iterations = 0;     // self-test size
  bool memsim = false;              // attach a MemoryHierarchy (Table III)
  unsigned fleet_tenants = 0;       // > 0: run through fleet::RunFleet
  svagc::fleet::ArbiterConfig arbiter;
  double slo_budget_ms = 0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

enum class Arm {
  kMeasured,   // the workload's own configuration
  kReference,  // same seed and configuration, memmove instead of SwapVA
};

struct ReplayOptions {
  Arm arm = Arm::kMeasured;
  unsigned iterations = 0;
  SpanLog* spans = nullptr;  // traced replay: wrap the public seams
  bool fleet_pauses = false;  // fleet: capture per-cycle pauses from spans
};

struct Replay {
  // Host clocks. CPU times are process CPU seconds, summed over every
  // thread; wall_s runs from the first set-up step to the end of the
  // operation loop (for the fleet it also covers the separately timed
  // set-up).
  double setup_cpu_s = 0;
  double loop_cpu_s = 0;
  double loop_wall_s = 0;
  double wall_s = 0;
  std::uint64_t ops = 0;  // Iterate calls, summed over tenants

  // Simulator results, one per tenant.
  std::vector<svagc::workloads::RunResult> tenants;
  svagc::fleet::FleetResult fleet;  // fleet workloads only
  std::vector<double> pause_cycles;  // one entry per GC cycle (all tenants)
  double llc_miss_pct = 0;
  double dtlb_miss_pct = 0;

  // Output check inputs.
  bool heap_ok = true;
  std::string heap_error;
  std::vector<std::uint64_t> digests;  // one per tenant

  // Traced replays only.
  std::uint64_t alloc_calls = 0;
  std::uint64_t memsim_accesses = 0;
  std::uint64_t memsim_lines = 0;
};

Replay RunReplay(const WorkloadSpec& spec, std::uint32_t seed,
                 const ReplayOptions& options);

}  // namespace svbench
