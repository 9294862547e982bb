// Open-loop multi-tenant load harness (Fig. 20 driver).
//
// N tenants — each a full JVM + collector + workload, built from the same
// RunConfig plumbing as RunWorkload — share one Machine. A round-based
// scheduler interleaves the tenants' operations; operations *arrive* on a
// deterministic per-tenant seeded exponential clock (open-loop: arrivals do
// not slow down because the tenant is stalled, so GC delay turns into queue
// wait instead of vanishing from the measurement — the classic closed-loop
// coordinated-omission trap).
//
// GC is triggered by heap pressure. With the arbiter disabled the triggering
// tenant collects inline, uncoordinated with everybody else (the multi-JVM
// problem of Fig. 2). With the arbiter enabled the tenant stalls, enqueues
// with the arbiter, and its cycle runs as part of the next epoch: mark/
// forward/adjust phases of all co-admitted members interleave (via the
// stepwise ParallelLisp2 API), one shared multi-ASID shootdown covers the
// whole epoch, and compact phases then run with the members' coalesced
// flushes skipped.
//
// Per-tenant SLO accounting: every cycle's observed pause = admission-queue
// wait + STW pause; violations are counted against slo_budget_ms.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/arbiter.h"
#include "workloads/runner.h"

namespace svagc::fleet {

struct FleetConfig {
  workloads::RunConfig run;  // workload / collector / heap / threads / profile
  unsigned tenants = 8;
  ArbiterConfig arbiter;

  // Request a GC once free heap drops below this many TLAB refills (times
  // the number of logical threads) — early enough that the request can queue
  // without the heap running dry. Exhaustion still triggers the emergency
  // inline GC inside Jvm::New; those bypass the arbiter and are counted.
  unsigned trigger_headroom_tlabs = 4;

  // Mean inter-arrival gap between operations, in modeled milliseconds.
  // 0 = saturating (every operation is due immediately).
  double arrival_interval_ms = 0;
  std::uint64_t arrival_seed = 0x5eed;

  // Pause-time SLO budget in modeled milliseconds (0 = no SLO accounting).
  double slo_budget_ms = 0;

  // Operations a runnable tenant executes per scheduler round.
  unsigned ops_burst = 4;

  // Optional fault hook installed on the kernel for the whole run
  // (fault_injection_test uses this to drop epoch broadcasts).
  sim::FaultHook* fault_hook = nullptr;

  // Fill each tenant RunResult's heap_digest with a semantic hash of the
  // final heap (verify::DigestHeap), so differential tests can compare
  // SwapVA and memmove fleets after the JVMs are torn down.
  bool digest_heaps = false;
};

struct FleetResult {
  // One entry per tenant, fleet SLO fields filled in.
  std::vector<workloads::RunResult> tenants;

  // Arbiter totals.
  double arbiter_cycles = 0;
  std::uint64_t epochs = 0;
  std::uint64_t epoch_broadcasts = 0;
  std::uint64_t broadcast_fallbacks = 0;
  std::uint64_t solo_epochs = 0;
  std::uint64_t max_epoch_size = 0;
  std::uint64_t max_waited_rounds = 0;

  // Machine totals.
  std::uint64_t ipis_sent = 0;
  std::uint64_t ipi_broadcasts = 0;
  double total_disturbance_cycles = 0;
  std::uint64_t emergency_gcs = 0;  // summed over tenants

  // Fleet-wide SLO rollup.
  std::uint64_t slo_violations = 0;
  double worst_observed_pause_cycles = 0;
};

FleetResult RunFleet(const FleetConfig& config);

// The fig20 ablation arms.
ArbiterConfig ArbiterOff();
ArbiterConfig ArbiterBatch();
ArbiterConfig ArbiterBatchAdmission(unsigned max_concurrent,
                                    double pause_budget_cycles);

}  // namespace svagc::fleet
