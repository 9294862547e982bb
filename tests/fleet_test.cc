// Tests across the tenant boundary: the fleet arbiter's batched shootdowns,
// admission control, pause-budget scheduling, and the open-loop runner.
//
// The load-bearing properties, in order:
//   1. Counter identity (paper Eq. 2, lifted to the fleet): with batching,
//      IPIs scale with *epochs*, never with swaps or with tenants' cycles.
//   2. Admission control never starves a tenant (priority aging).
//   3. A fleet of one is bit-identical with the arbiter on and off — the
//      coordination machinery is free when there is nothing to coordinate.
//   4. SwapVA fleets and memmove fleets converge to semantically identical
//      heaps under concurrent multi-tenant GC (differential oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_runner.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace svagc {
namespace {

using svagc::testing::SimBundle;

workloads::RunConfig BaseRun(unsigned iterations = 8) {
  workloads::RunConfig run;
  run.workload = "lrucache";
  run.collector = workloads::CollectorKind::kSvagc;
  run.gc_threads = 4;
  run.iterations = iterations;
  return run;
}

fleet::FleetConfig BaseFleet(unsigned tenants, fleet::ArbiterConfig arbiter,
                             unsigned iterations = 8) {
  fleet::FleetConfig config;
  config.run = BaseRun(iterations);
  config.tenants = tenants;
  config.arbiter = arbiter;
  return config;
}

std::uint64_t TotalGcCount(const fleet::FleetResult& result) {
  std::uint64_t total = 0;
  for (const auto& r : result.tenants) total += r.gc_count;
  return total;
}

// --- 1. batched-shootdown counter identity -----------------------------------

// With batching on, every epoch costs exactly one broadcast — the shared
// multi-ASID round for co-admitted cycles, or the solo member's own process
// flush — so ipis_sent == epochs * (cores - 1). Never per-swap, never
// per-tenant-cycle. 8 tenants * 4 GC threads == 32 cores: no pin overlap,
// every cycle runs Algorithm 4's pinned regime.
TEST(FleetCounters, IpisScaleWithEpochsNotSwaps) {
  const auto result =
      fleet::RunFleet(BaseFleet(8, fleet::ArbiterBatch(), /*iterations=*/12));
  ASSERT_GT(result.epochs, 0u);
  EXPECT_EQ(result.emergency_gcs, 0u);
  EXPECT_EQ(result.broadcast_fallbacks, 0u);
  const unsigned cores = 32;
  EXPECT_EQ(result.ipis_sent, result.epochs * (cores - 1));
  // The identity is what makes batching a win: uncoordinated tenants pay one
  // broadcast per *cycle*, and there are far more cycles than epochs.
  ASSERT_GT(TotalGcCount(result), result.epochs);
  const auto off =
      fleet::RunFleet(BaseFleet(8, fleet::ArbiterOff(), /*iterations=*/12));
  EXPECT_LT(result.ipis_sent, off.ipis_sent);
}

// The multi-ASID primitive itself: one broadcast round, cores-1 IPIs, every
// named ASID flushed on every remote core, regardless of how many address
// spaces are batched into the epoch.
TEST(FleetCounters, MultiAsidFlushIsOneBroadcast) {
  SimBundle sim(4);
  sim::AddressSpace a(sim.machine, sim.phys);
  sim::AddressSpace b(sim.machine, sim.phys);
  const sim::vaddr_t base_a = 1ULL << 32;
  const sim::vaddr_t base_b = 1ULL << 33;
  a.MapRange(base_a, 4 * sim::kPageSize);
  b.MapRange(base_b, 4 * sim::kPageSize);

  // Warm a remote core's TLB with both tenants' translations.
  sim::CpuContext remote(sim.machine, 1);
  for (std::uint64_t p = 0; p < 4; ++p) {
    a.HwPtr(remote, base_a + p * sim::kPageSize);
    b.HwPtr(remote, base_b + p * sim::kPageSize);
  }
  const std::uint64_t vpn_a = base_a >> sim::kPageShift;
  const std::uint64_t vpn_b = base_b >> sim::kPageShift;
  ASSERT_TRUE(sim.machine.tlb(1).Lookup(a.asid(), vpn_a).hit);
  ASSERT_TRUE(sim.machine.tlb(1).Lookup(b.asid(), vpn_b).hit);

  const telemetry::MetricsRegistry& metrics = sim.machine.metrics();
  const std::uint64_t ipis_before = metrics.CounterValue("ipi.sent");
  sim::CpuContext arbiter_ctx(sim.machine, 0);
  std::vector<sim::AddressSpace*> spaces = {&a, &b};
  ASSERT_EQ(sim.kernel.SysFlushFleetTlbs(spaces, arbiter_ctx),
            sim::SysStatus::kOk);
  EXPECT_EQ(metrics.CounterValue("ipi.sent") - ipis_before, 3u);  // cores - 1
  EXPECT_FALSE(sim.machine.tlb(1).Lookup(a.asid(), vpn_a).hit);
  EXPECT_FALSE(sim.machine.tlb(1).Lookup(b.asid(), vpn_b).hit);
}

// --- 2. admission fairness ---------------------------------------------------

// K = 1 is the most starvation-prone configuration: every epoch admits a
// single tenant, so without aging the highest-priority requester could pin
// the queue forever. Every tenant must still complete all its operations
// and collect, and no request may wait more than the aging bound.
TEST(FleetAdmission, NoStarvationUnderSerialAdmission) {
  fleet::ArbiterConfig arbiter;
  arbiter.batch_shootdowns = true;
  arbiter.max_concurrent_gcs = 1;
  const auto result = fleet::RunFleet(BaseFleet(8, arbiter, /*iterations=*/12));
  for (const auto& r : result.tenants) {
    EXPECT_EQ(r.iterations, 12u);
    EXPECT_GE(r.gc_count, 1u);
  }
  // K = 1 means one member per epoch, so epochs == admitted cycles.
  EXPECT_EQ(result.epochs, TotalGcCount(result) - result.emergency_gcs);
  // Bounded queue wait: requests age out of partial batches after
  // max_wait_rounds, and the in-round drain loop serves the whole queue, so
  // nobody waits more than the bound plus the round that admits them.
  EXPECT_LE(result.max_waited_rounds, arbiter.max_wait_rounds + 1);
}

// --- 3. single-tenant bit-identity -------------------------------------------

// The arbiter must be invisible when there is nothing to arbitrate: a fleet
// of one produces bit-identical GC stats, mutator cycles, and machine/GC
// counters with the arbiter on (batch + admission + budget) and off. The
// only allowed difference is the arbiter's own fleet.* bookkeeping.
TEST(FleetIdentity, SingleTenantBitIdenticalArbiterOnVsOff) {
  auto run = [](fleet::ArbiterConfig arbiter) {
    fleet::FleetConfig config = BaseFleet(1, arbiter, /*iterations=*/10);
    config.slo_budget_ms = 0.25;
    config.digest_heaps = true;
    return fleet::RunFleet(config);
  };
  const auto off = run(fleet::ArbiterOff());
  const auto on = run(fleet::ArbiterBatchAdmission(2, /*budget=*/2.1e6));

  ASSERT_EQ(off.tenants.size(), 1u);
  ASSERT_EQ(on.tenants.size(), 1u);
  const workloads::RunResult& a = off.tenants[0];
  const workloads::RunResult& b = on.tenants[0];
  EXPECT_EQ(a.gc_count, b.gc_count);
  EXPECT_EQ(a.gc_total_cycles, b.gc_total_cycles);  // bit-equal doubles
  EXPECT_EQ(a.gc_max_cycles, b.gc_max_cycles);
  EXPECT_EQ(a.mutator_cycles, b.mutator_cycles);
  EXPECT_EQ(a.app_cycles, b.app_cycles);
  EXPECT_EQ(a.ipis_sent, b.ipis_sent);
  EXPECT_EQ(a.bytes_copied, b.bytes_copied);
  EXPECT_EQ(a.bytes_swapped, b.bytes_swapped);
  EXPECT_EQ(a.swap_calls, b.swap_calls);
  EXPECT_EQ(a.heap_digest, b.heap_digest);
  EXPECT_EQ(a.gc_wait_cycles, 0.0);
  EXPECT_EQ(b.gc_wait_cycles, 0.0);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_EQ(a.gc_counters, b.gc_counters);
  // Machine counters match except the arbiter's own fleet.* entries.
  auto strip_fleet = [](const workloads::RunResult& r) {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (const auto& entry : r.machine_counters) {
      if (entry.first.rfind("fleet.", 0) != 0) counters.push_back(entry);
    }
    return counters;
  };
  EXPECT_EQ(strip_fleet(a), strip_fleet(b));
}

// --- pause-budget property ---------------------------------------------------

// Over random tenant mixes, coordination must never make the worst tenant's
// pause or SLO tally worse than the uncoordinated fleet: admission caps the
// concurrent GC gangs that inflate pauses, and waits are accounted
// separately from the pause-time SLO.
TEST(FleetAdmission, PauseBudgetPropertyOverTenantMixes) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const unsigned tenants = 4 + static_cast<unsigned>(rng.NextBelow(5));
    auto run = [&](fleet::ArbiterConfig arbiter) {
      fleet::FleetConfig config =
          BaseFleet(tenants, arbiter, /*iterations=*/10);
      config.slo_budget_ms = 0.25;
      config.arrival_seed = seed;
      config.run.verify_heap = true;
      return fleet::RunFleet(config);
    };
    const auto off = run(fleet::ArbiterOff());
    const auto on = run(fleet::ArbiterBatchAdmission(2, /*budget=*/0.5e6));

    double off_worst = 0;
    double on_worst = 0;
    std::uint64_t off_viol = 0;
    std::uint64_t on_viol = 0;
    for (unsigned j = 0; j < tenants; ++j) {
      off_worst = std::max(off_worst, off.tenants[j].gc_max_cycles);
      on_worst = std::max(on_worst, on.tenants[j].gc_max_cycles);
      off_viol += off.tenants[j].slo_violations;
      on_viol += on.tenants[j].slo_violations;
    }
    EXPECT_LE(on_worst, off_worst) << "seed=" << seed << " T=" << tenants;
    EXPECT_LE(on_viol, off_viol) << "seed=" << seed << " T=" << tenants;
    EXPECT_EQ(on.broadcast_fallbacks, 0u);
  }
}

// --- 4. differential oracle across the tenant boundary -----------------------

// Four concurrent SwapVA tenants vs four memmove tenants, same seeds, same
// admission schedule (budget off so pause feedback cannot diverge the
// epochs): every tenant's final heap must be semantically identical — same
// objects, references, payloads, roots, layout — and both fleets must pass
// the full heap verifier.
TEST(FleetDifferential, SwapVaMatchesMemmoveAcrossFourTenants) {
  auto run = [](workloads::CollectorKind kind) {
    fleet::FleetConfig config =
        BaseFleet(4, fleet::ArbiterBatchAdmission(2, /*budget=*/0),
                  /*iterations=*/10);
    config.run.collector = kind;
    config.run.gc_threads = 2;
    config.run.verify_heap = true;
    config.digest_heaps = true;
    return fleet::RunFleet(config);
  };
  const auto swap = run(workloads::CollectorKind::kSvagc);
  const auto memmove_only = run(workloads::CollectorKind::kSvagcNoSwap);
  ASSERT_EQ(swap.tenants.size(), memmove_only.tenants.size());
  for (unsigned j = 0; j < swap.tenants.size(); ++j) {
    EXPECT_EQ(swap.tenants[j].gc_count, memmove_only.tenants[j].gc_count)
        << "tenant " << j;
    EXPECT_EQ(swap.tenants[j].heap_digest, memmove_only.tenants[j].heap_digest)
        << "tenant " << j;
  }
  // And the SwapVA fleet actually swapped — the comparison is not vacuous.
  std::uint64_t swapped = 0;
  for (const auto& r : swap.tenants) swapped += r.bytes_swapped;
  EXPECT_GT(swapped, 0u);
}

// --- soak --------------------------------------------------------------------

// 16 tenants, batching + admission + budget, heap verifier on: the CI
// fleet_soak entry runs this under tsan.
TEST(FleetSoak, SixteenTenants) {
  // SVAGC_SOAK_SCALE multiplies the iteration count (nightly CI runs 10x).
  const char* scale_env = std::getenv("SVAGC_SOAK_SCALE");
  const unsigned scale = scale_env != nullptr && scale_env[0] != '\0'
                             ? static_cast<unsigned>(
                                   std::strtoul(scale_env, nullptr, 10))
                             : 1;
  const unsigned iterations = 10 * std::max(1u, scale);
  fleet::FleetConfig config =
      BaseFleet(16, fleet::ArbiterBatchAdmission(2, /*budget=*/0.5e6),
                iterations);
  config.slo_budget_ms = 0.25;
  config.run.verify_heap = true;
  const auto result = fleet::RunFleet(config);
  EXPECT_EQ(result.tenants.size(), 16u);
  for (const auto& r : result.tenants) {
    EXPECT_EQ(r.iterations, iterations);
    EXPECT_GE(r.gc_count, 1u);
  }
  EXPECT_GT(result.epochs, 0u);
  EXPECT_EQ(result.broadcast_fallbacks, 0u);
}

}  // namespace
}  // namespace svagc
