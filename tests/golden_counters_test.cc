// Golden event totals of five deterministic runs (bytes moved, swap calls,
// IPIs: the paper's counted evidence), recorded before the metrics
// registries became their only tally, and proof that attaching a trace
// recorder changes none of them. A counting change fails here exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "fleet/fleet_runner.h"
#include "telemetry/trace_recorder.h"
#include "workloads/runner.h"

namespace svagc {
namespace {

using workloads::CounterSnapshot;
using workloads::FindCounter;
using workloads::RunConfig;
using workloads::RunResult;

// "name=value ..." in snapshot order: a recorded snapshot fits in a few
// lines, and a mismatch prints both sides in the same form.
std::string Render(const CounterSnapshot& counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(value);
  }
  return out;
}

// bytes_copied, bytes_swapped, swap_calls, ipis_sent, gc_count,
// gc_full_count, gc_minor_count, then the five tier_* totals.
using Totals = std::array<std::uint64_t, 12>;
Totals TotalsOf(const RunResult& r) {
  return std::to_array<std::uint64_t>(
      {r.bytes_copied, r.bytes_swapped, r.swap_calls, r.ipis_sent, r.gc_count,
       r.gc_full_count, r.gc_minor_count, r.tier_faults, r.tier_swapins,
       r.tier_evictions, r.tier_far_bytes_written, r.tier_relinks_swapped});
}

RunConfig LruCache() {
  RunConfig config;
  config.workload = "lrucache";
  config.collector = workloads::CollectorKind::kSvagc;
  config.iterations = 25;
  config.gc_threads = 4;
  config.machine_cores = 8;
  return config;
}

RunConfig Generational() {
  RunConfig config = LruCache();
  config.iterations = 200;
  config.heap_factor = 1.5;
  config.generational.enabled = true;
  return config;
}

// epochs, epoch_broadcasts, broadcast_fallbacks, solo_epochs,
// max_epoch_size, max_waited_rounds, ipis_sent, ipi_broadcasts,
// emergency_gcs, slo_violations.
using FleetTotals = std::array<std::uint64_t, 10>;
FleetTotals FleetTotalsOf(const fleet::FleetResult& f) {
  return std::to_array<std::uint64_t>(
      {f.epochs, f.epoch_broadcasts, f.broadcast_fallbacks, f.solo_epochs,
       f.max_epoch_size, f.max_waited_rounds, f.ipis_sent, f.ipi_broadcasts,
       f.emergency_gcs, f.slo_violations});
}

fleet::FleetConfig BatchFleet() {
  fleet::FleetConfig config;
  config.run = LruCache();
  config.run.iterations = 12;
  config.tenants = 8;
  config.arbiter = fleet::ArbiterBatch();
  return config;
}

TEST(GoldenCounters, Svagc) {
  const RunResult r = workloads::RunWorkload(LruCache());
  EXPECT_EQ(TotalsOf(r),
            (Totals{1417688, 64475136, 276, 14, 2, 2, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(
      Render(r.machine_counters),
      "flush.fleet=0 flush.process=2 ipi.broadcasts=2 ipi.sent=14 "
      "kernel.tier.madvise_cold=0 kernel.tier.relinks_swapped=0 "
      "kernel.translation.probes=0 kernel.translation.relinks=0 "
      "kernel.translation.swtlb_fills=0 kernel.translation.walks=25957 "
      "pin.calls=8 pin.not_pinned=0 pin.refused=0 pmd.hits=30543 "
      "pmd.misses=915 swapva.calls=276 swapva.pages_swapped=15876 "
      "swapva.pmd_splits=0 swapva.pmd_swaps=0 swapva.pte_swaps=15876 "
      "tlb.asid_flushes=292 tlb.hits=2325 tlb.local_flushes=278 "
      "tlb.misses=25042 unpin.calls=8");
  EXPECT_EQ(
      Render(r.gc_counters),
      "gc.bytes_copied=1417688 gc.bytes_swapped=64475136 "
      "gc.compact_dep_edges=285 gc.compact_regions=286 gc.objects_copied=78 "
      "gc.objects_moved=509 gc.objects_swapped=431 gc.pin_losses_recovered=0 "
      "gc.pin_refusals=0 gc.swap_calls=276 gc.swap_faults_recovered=0");
}

// The front end and its inner SVAGC publish into one registry, so the run
// now also reports the counters only the inner collector writes; the
// recording had just the four checked here.
TEST(GoldenCounters, Generational) {
  const RunResult r = workloads::RunWorkload(Generational());
  EXPECT_EQ(TotalsOf(r),
            (Totals{21650224, 312913920, 1365, 63, 40, 9, 31, 0, 0, 0, 0, 0}));
  EXPECT_EQ(
      Render(r.machine_counters),
      "flush.fleet=0 flush.process=9 ipi.broadcasts=9 ipi.sent=63 "
      "kernel.tier.madvise_cold=0 kernel.tier.relinks_swapped=0 "
      "kernel.translation.probes=0 kernel.translation.relinks=0 "
      "kernel.translation.swtlb_fills=0 kernel.translation.walks=153825 "
      "pin.calls=36 pin.not_pinned=0 pin.refused=0 pmd.hits=148348 "
      "pmd.misses=4357 swapva.calls=1365 swapva.pages_swapped=76526 "
      "swapva.pmd_splits=0 swapva.pmd_swaps=0 swapva.pte_swaps=76526 "
      "tlb.asid_flushes=1437 tlb.hits=14620 tlb.local_flushes=1374 "
      "tlb.misses=149468 unpin.calls=36");
  EXPECT_EQ(FindCounter(r.gc_counters, "gc.bytes_copied"), 21650224u);
  EXPECT_EQ(FindCounter(r.gc_counters, "gc.bytes_swapped"), 312913920u);
  EXPECT_EQ(FindCounter(r.gc_counters, "gc.objects_moved"), 3145u);
  EXPECT_EQ(FindCounter(r.gc_counters, "gc.swap_calls"), 1365u);
  EXPECT_FALSE(FindCounter(r.gc_counters, "gc.collections").has_value());
  EXPECT_GT(FindCounter(r.gc_counters, "gc.compact_regions"), 0u);
}

TEST(GoldenCounters, ConcurrentSvagc) {
  RunConfig config = LruCache();
  config.collector = workloads::CollectorKind::kConcurrentSvagc;
  const RunResult r = workloads::RunWorkload(config);
  EXPECT_EQ(TotalsOf(r),
            (Totals{1417688, 64475136, 431, 266, 2, 2, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(
      Render(r.machine_counters),
      "flush.fleet=38 flush.process=0 ipi.broadcasts=38 ipi.sent=266 "
      "kernel.tier.madvise_cold=0 kernel.tier.relinks_swapped=0 "
      "kernel.translation.probes=0 kernel.translation.relinks=0 "
      "kernel.translation.swtlb_fills=0 kernel.translation.walks=25957 "
      "pin.calls=2 pin.not_pinned=0 pin.refused=0 pmd.hits=30543 "
      "pmd.misses=915 swapva.calls=431 swapva.pages_swapped=15876 "
      "swapva.pmd_splits=0 swapva.pmd_swaps=0 swapva.pte_swaps=15876 "
      "tlb.asid_flushes=732 tlb.hits=2325 tlb.local_flushes=466 "
      "tlb.misses=25042 unpin.calls=2");
  EXPECT_EQ(
      Render(r.gc_counters),
      "gc.bytes_copied=1417688 gc.bytes_swapped=64475136 "
      "gc.concurrent_cycles=825277 gc.objects_copied=78 gc.objects_moved=509 "
      "gc.objects_swapped=431 gc.pin_losses_recovered=0 gc.pin_refusals=0 "
      "gc.swap_calls=431 gc.swap_faults_recovered=0");
}

// One GC thread: with several, which worker faults a page in first, and so
// which page the clock evicts, follows host scheduling.
TEST(GoldenCounters, FarTier) {
  RunConfig config = LruCache();
  config.far_residency = 0.7;
  config.gc_threads = 1;
  const RunResult r = workloads::RunWorkload(config);
  EXPECT_EQ(TotalsOf(r), (Totals{1417688, 64475136, 276, 14, 2, 2, 0, 17927,
                                 17927, 21616, 88539136, 10940}));
  EXPECT_EQ(
      Render(r.machine_counters),
      "flush.fleet=0 flush.process=2 ipi.broadcasts=2 ipi.sent=14 "
      "kernel.tier.evictions=21616 kernel.tier.far_bytes_written=88539136 "
      "kernel.tier.faults=17927 kernel.tier.madvise_cold=0 "
      "kernel.tier.relinks_swapped=10940 kernel.tier.shootdowns=21616 "
      "kernel.tier.swapins=17927 kernel.translation.probes=0 "
      "kernel.translation.relinks=0 kernel.translation.swtlb_fills=0 "
      "kernel.translation.walks=26607 pin.calls=2 pin.not_pinned=0 "
      "pin.refused=0 pmd.hits=30543 pmd.misses=915 swapva.calls=276 "
      "swapva.pages_swapped=15876 swapva.pmd_splits=0 swapva.pmd_swaps=0 "
      "swapva.pte_swaps=15876 tlb.asid_flushes=292 tlb.hits=2325 "
      "tlb.local_flushes=278 tlb.misses=25042 tlb.page_flushes=172928 "
      "unpin.calls=2");
  EXPECT_EQ(
      Render(r.gc_counters),
      "gc.bytes_copied=1417688 gc.bytes_swapped=64475136 gc.objects_copied=78 "
      "gc.objects_moved=509 gc.objects_swapped=431 gc.pin_losses_recovered=0 "
      "gc.pin_refusals=0 gc.swap_calls=276 gc.swap_faults_recovered=0");
}

// Eight tenants on eight cores: 4 epochs, 3 of them shared broadcasts, each
// epoch one round of 7 IPIs. Every tenant's result holds the same machine
// snapshot; tenant totals and gc counters are summed.
TEST(GoldenCounters, BatchFleet) {
  const fleet::FleetResult f = fleet::RunFleet(BatchFleet());
  EXPECT_EQ(FleetTotalsOf(f), (FleetTotals{4, 3, 0, 0, 6, 1, 28, 4, 0, 0}));

  Totals sum{};
  std::map<std::string, std::uint64_t> gc;
  for (const RunResult& t : f.tenants) {
    EXPECT_EQ(t.machine_counters, f.tenants.front().machine_counters);
    const Totals totals = TotalsOf(t);
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += totals[i];
    for (const auto& [name, value] : t.gc_counters) gc[name] += value;
  }
  // ipis_sent is machine-wide, so the eight tenants sum to 8 x 28.
  EXPECT_EQ(sum,
            (Totals{9604448, 364400640, 1497, 224, 11, 11, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(
      Render(f.tenants.front().machine_counters),
      "fleet.epoch_broadcasts=3 fleet.epochs=4 fleet.flushes_coalesced=10 "
      "fleet.gc_admitted=11 flush.fleet=3 flush.process=1 ipi.broadcasts=4 "
      "ipi.sent=28 kernel.tier.madvise_cold=0 kernel.tier.relinks_swapped=0 "
      "kernel.translation.probes=0 kernel.translation.relinks=0 "
      "kernel.translation.swtlb_fills=0 kernel.translation.walks=140706 "
      "pin.calls=44 pin.not_pinned=0 pin.refused=0 pmd.hits=172945 "
      "pmd.misses=4985 swapva.calls=1497 swapva.pages_swapped=88965 "
      "swapva.pmd_splits=0 swapva.pmd_swaps=0 swapva.pte_swaps=88965 "
      "tlb.asid_flushes=1585 tlb.hits=6369 tlb.local_flushes=1508 "
      "tlb.misses=135721 unpin.calls=44");
  EXPECT_EQ(
      Render(CounterSnapshot(gc.begin(), gc.end())),
      "gc.bytes_copied=9604448 gc.bytes_swapped=364400640 "
      "gc.compact_dep_edges=2118 gc.compact_regions=1532 "
      "gc.flushes_coalesced=10 gc.objects_copied=472 gc.objects_moved=2800 "
      "gc.objects_swapped=2328 gc.pin_losses_recovered=0 gc.pin_refusals=0 "
      "gc.swap_calls=1497 gc.swap_faults_recovered=0");
}

// --- tracing never perturbs the model ----------------------------------------
// Each run is repeated with a TraceRecorder attached. The untraced run needs
// SVAGC_TRACE_OUT unset, or the runner would attach the env recorder.

// Every modeled field of a RunResult, so two runs compare in one EXPECT_EQ.
auto Modeled(const RunResult& r) {
  return std::make_tuple(
      r.gc_count, r.gc_full_count, r.gc_minor_count, r.promoted_bytes,
      r.premature_tenures, r.gc_total_cycles, r.gc_avg_cycles,
      r.gc_max_cycles, r.gc_p99_cycles, r.phase_sum.mark, r.phase_sum.forward,
      r.phase_sum.adjust, r.phase_sum.compact, r.phase_sum.other,
      r.gc_wait_cycles, r.gc_wait_max_cycles, r.observed_pause_max_cycles,
      r.slo_violations, r.emergency_gcs, r.mutator_cycles,
      r.disturbance_cycles, r.app_cycles, r.throughput_ops, TotalsOf(r),
      r.alignment_waste_bytes, r.physical_bytes_written, r.machine_counters,
      r.gc_counters);
}

void ExpectTraceInvariant(RunConfig config) {
  ASSERT_EQ(telemetry::EnvTraceRecorder(), nullptr) << "SVAGC_TRACE_OUT set";
  const RunResult plain = workloads::RunWorkload(config);
  telemetry::TraceRecorder recorder;
  config.trace_recorder = &recorder;
  EXPECT_EQ(Modeled(plain), Modeled(workloads::RunWorkload(config)));
  EXPECT_GT(recorder.size(), 0u);
}

TEST(TraceIdentity, Svagc) { ExpectTraceInvariant(LruCache()); }

TEST(TraceIdentity, Generational) { ExpectTraceInvariant(Generational()); }

TEST(TraceIdentity, BatchFleet) {
  ASSERT_EQ(telemetry::EnvTraceRecorder(), nullptr) << "SVAGC_TRACE_OUT set";
  fleet::FleetConfig config = BatchFleet();
  const fleet::FleetResult plain = fleet::RunFleet(config);
  telemetry::TraceRecorder recorder;
  config.run.trace_recorder = &recorder;
  const fleet::FleetResult traced = fleet::RunFleet(config);
  EXPECT_GT(recorder.size(), 0u);
  EXPECT_EQ(FleetTotalsOf(plain), FleetTotalsOf(traced));
  EXPECT_EQ(std::tie(plain.arbiter_cycles, plain.total_disturbance_cycles,
                     plain.worst_observed_pause_cycles),
            std::tie(traced.arbiter_cycles, traced.total_disturbance_cycles,
                     traced.worst_observed_pause_cycles));
  ASSERT_EQ(plain.tenants.size(), traced.tenants.size());
  for (std::size_t i = 0; i < plain.tenants.size(); ++i) {
    EXPECT_EQ(Modeled(plain.tenants[i]), Modeled(traced.tenants[i]))
        << "tenant " << i;
  }
}

}  // namespace
}  // namespace svagc
