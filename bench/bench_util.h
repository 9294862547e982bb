// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "simkernel/cost_model.h"
#include "support/table.h"
#include "workloads/runner.h"

namespace svagc::bench {

inline bool EnvFlag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

// SVAGC_BENCH_SMOKE=1 shrinks every harness's sweep to a seconds-long run
// (the size the bench_regression gate checks); SVAGC_BENCH_JSON=1 switches
// table output to one machine-checkable JSON line per table.
inline bool SmokeMode() { return EnvFlag("SVAGC_BENCH_SMOKE"); }
inline bool JsonMode() { return EnvFlag("SVAGC_BENCH_JSON"); }

// Tables go through Emit so every harness honors SVAGC_BENCH_JSON.
inline void Emit(const std::string& id, const TablePrinter& table) {
  if (JsonMode()) {
    table.PrintJson(id);
  } else {
    table.Print();
  }
}

// Iteration count / sweep shrinkers for smoke mode. The default smoke count
// is the fewest iterations that make every smoke-size run collect at least
// once (sor.large.x10 at 1.6x heap collects first, at iteration 12), so no
// gated cell reads a GC time of zero.
inline unsigned SmokeIterations(unsigned full, unsigned smoke = 12) {
  return SmokeMode() ? smoke : full;
}

template <typename T>
std::vector<T> SmokeSweep(std::vector<T> full) {
  if (SmokeMode() && full.size() > 2) return {full.front(), full.back()};
  return full;
}

// Every harness prints the cost-model profile it ran under so results are
// auditable against simkernel/cost_model.cc.
inline void PrintProfileHeader(const sim::CostProfile& profile) {
  std::printf(
      "cost profile: %s (%.1f GHz) — syscall=%.0f walk=%.0f pte=%.0f "
      "lock=%.0f update=%.0f flushL=%.0f flushP=%.0f ipi=%.0f/%.0f "
      "copy=%.3f/%.3f cyc/B\n",
      profile.name.c_str(), profile.ghz, profile.syscall_entry,
      profile.pagetable_access, profile.pte_access, profile.pte_lock_pair,
      profile.pte_update, profile.tlb_flush_local, profile.tlb_flush_page,
      profile.ipi_send, profile.ipi_handle, profile.copy_per_byte_cached,
      profile.copy_per_byte_dram);
}

inline std::string Ms(double cycles, const sim::CostProfile& profile) {
  return Format("%.3f", cycles / (profile.ghz * 1e9) * 1e3);
}

inline std::string Pct(double x) { return Format("%.1f%%", x); }

// Environment overrides for fleet-mode harnesses (fig20): SVAGC_TENANTS,
// SVAGC_FLEET_SLO_MS, SVAGC_FLEET_K.
inline unsigned EnvUnsigned(const char* name, unsigned fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return static_cast<unsigned>(std::strtoul(value, nullptr, 10));
}

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::strtod(value, nullptr);
}

// Worst-tenant pause roll-up for multi-tenant tables (fig02, fig20). Each
// tenant's RunResult carries its own pause distribution; fleet-level rows
// report the worst tenant — the noisy neighbour's victim is the number a
// multi-tenant SLO is judged by, not the fleet mean.
struct TenantPauses {
  double p99_cycles = 0;  // worst per-tenant p99 pause
  double max_cycles = 0;  // worst single pause anywhere in the fleet
};

inline TenantPauses WorstTenantPauses(
    const std::vector<workloads::RunResult>& tenants) {
  TenantPauses worst;
  for (const workloads::RunResult& r : tenants) {
    worst.p99_cycles = std::max(worst.p99_cycles, r.gc_p99_cycles);
    worst.max_cycles = std::max(worst.max_cycles, r.gc_max_cycles);
  }
  return worst;
}

}  // namespace svagc::bench
