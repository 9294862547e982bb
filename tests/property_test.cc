// Property-based sweeps over the invariants that hold for *any* input:
// page-table map/unmap sequences, SwapVA alignment preconditions, minor
// evacuation across size spectra, TLB flush-vs-lookup races, and
// multi-JVM determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "simkernel/page_table.h"
#include "simkernel/swapva.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "workloads/runner.h"

namespace svagc {
namespace {

using svagc::testing::MoveToSpace;
using svagc::testing::SimBundle;

// Randomized map/unmap sequences against a host-side reference map: the
// radix tree must agree with a std::map at every step.
TEST(PageTableProperty, RandomMapUnmapMatchesReference) {
  sim::PageTable table;
  std::map<std::uint64_t, sim::frame_t> reference;
  Rng rng(31);
  sim::frame_t next_frame = 1;
  for (int step = 0; step < 20000; ++step) {
    // Bias vpns toward level boundaries where index-arithmetic bugs live.
    std::uint64_t vpn = rng.NextBelow(1ULL << 20);
    if (rng.NextBelow(4) == 0) {
      vpn = (vpn & ~511ULL) + (rng.NextBelow(2) ? 511 : 0);
    }
    const bool mapped = reference.count(vpn) != 0;
    if (!mapped && rng.NextBelow(3) != 0) {
      table.Map(vpn, next_frame);
      reference[vpn] = next_frame++;
    } else if (mapped && rng.NextBelow(2) == 0) {
      EXPECT_EQ(table.Unmap(vpn), reference[vpn]);
      reference.erase(vpn);
    }
    const auto lookup = table.Lookup(vpn);
    if (reference.count(vpn)) {
      ASSERT_TRUE(lookup.has_value());
      ASSERT_EQ(*lookup, reference[vpn]);
    } else {
      ASSERT_FALSE(lookup.has_value());
    }
  }
  EXPECT_EQ(table.mapped_pages(), reference.size());
}

// Unaligned addresses violate SwapVA's contract and must abort loudly
// rather than corrupt PTEs.
TEST(SwapVaDeathTest, RejectsUnalignedAddresses) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        SimBundle sim(1);
        sim::AddressSpace as(sim.machine, sim.phys);
        as.MapRange(1ULL << 32, 16 * sim::kPageSize);
        sim::CpuContext ctx(sim.machine, 0);
        sim.kernel.SysSwapVa(as, ctx, (1ULL << 32) + 8,
                             (1ULL << 32) + 8 * sim::kPageSize, 2,
                             sim::SwapVaOptions{});
      },
      "CHECK failed");
}

// Swapping an unmapped page must abort (present-bit check in Algorithm 1).
TEST(SwapVaDeathTest, RejectsUnmappedPages) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        SimBundle sim(1);
        sim::AddressSpace as(sim.machine, sim.phys);
        as.MapRange(1ULL << 32, 4 * sim::kPageSize);
        sim::CpuContext ctx(sim.machine, 0);
        sim.kernel.SysSwapVa(as, ctx, 1ULL << 32, (1ULL << 32) + (1ULL << 30),
                             1, sim::SwapVaOptions{});
      },
      "");
}

// Minor evacuation across the size spectrum: every size must survive a
// round trip, with swaps engaged exactly at and above the threshold.
class EvacuationSizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvacuationSizeSweep, RoundTripsAnyObjectSize) {
  const std::uint64_t data_bytes = GetParam();
  SimBundle sim(2, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 96ULL << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  const rt::vaddr_t to_space = jvm.heap().end() + (1ULL << 24);
  jvm.address_space().MapRange(to_space, 64ULL << 20);

  std::vector<rt::vaddr_t> survivors;
  for (int i = 0; i < 4; ++i) {
    const rt::vaddr_t obj = jvm.New(1, 0, data_bytes);
    rt::ObjectView view = jvm.View(obj);
    for (std::uint64_t w = 0; w < view.data_words(); w += 7) {
      view.set_data_word(w, w * 31 + i);
    }
    survivors.push_back(obj);
  }
  core::MoveObjectConfig move_config;
  core::ObjectMover mover(jvm, move_config);
  sim::CpuContext ctx(sim.machine, 0);
  int i = 0;
  for (const rt::vaddr_t dst :
       MoveToSpace(jvm, mover, ctx, survivors, to_space)) {
    rt::ObjectView view = jvm.View(dst);
    ASSERT_EQ(view.size(), rt::ObjectBytes(0, data_bytes));
    for (std::uint64_t w = 0; w < view.data_words(); w += 7) {
      ASSERT_EQ(view.data_word(w), w * 31 + i) << "size " << data_bytes;
    }
    ++i;
  }
  const std::uint64_t object_bytes = rt::ObjectBytes(0, data_bytes);
  const bool expect_swapped =
      object_bytes >= move_config.threshold_pages * sim::kPageSize;
  EXPECT_EQ(mover.stats().objects_swapped, expect_swapped ? 4u : 0u)
      << data_bytes;
  jvm.address_space().UnmapRange(to_space, 64ULL << 20);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EvacuationSizeSweep,
    ::testing::Values(8, 256, 4072,                    // sub-page
                      9 * sim::kPageSize,              // just below threshold
                      10 * sim::kPageSize,             // at threshold (incl. header)
                      11 * sim::kPageSize - 24,        // exactly threshold pages
                      64 * sim::kPageSize, (4ULL << 20)));

// TLB lookups racing remote flushes never return stale frames for entries
// that were flushed before the lookup began (linearizability smoke).
TEST(TlbProperty, ConcurrentFlushAndLookupAreSafe) {
  sim::Tlb tlb(64, 4);
  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      tlb.FlushAsid(1);
    }
  });
  Rng rng(5);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t vpn = rng.NextBelow(128);
    tlb.Insert(1, vpn, vpn + 1000);
    const auto result = tlb.Lookup(1, vpn);
    if (result.hit) {
      ASSERT_EQ(result.frame, vpn + 1000);  // never someone else's frame
    }
  }
  stop.store(true);
  flusher.join();
}

// The multi-JVM runner is deterministic and its per-JVM results are
// self-consistent across repetitions.
TEST(MultiJvmProperty, DeterministicAcrossRepetitions) {
  workloads::RunConfig config;
  config.workload = "lrucache";
  config.iterations = 8;
  config.gc_threads = 4;
  const auto a = workloads::RunMultiJvm(config, 4);
  const auto b = workloads::RunMultiJvm(config, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].mutator_cycles, b[i].mutator_cycles) << i;
    EXPECT_EQ(a[i].gc_count, b[i].gc_count) << i;
    EXPECT_DOUBLE_EQ(a[i].gc_total_cycles, b[i].gc_total_cycles) << i;
  }
}

// Aggregation is cost-transparent: batched and separated swaps leave
// byte-identical address spaces for any request pattern.
TEST(SwapVaProperty, AggregationIsSemanticallyTransparent) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    SimBundle sep_sim(2), vec_sim(2);
    sim::AddressSpace sep_as(sep_sim.machine, sep_sim.phys);
    sim::AddressSpace vec_as(vec_sim.machine, vec_sim.phys);
    constexpr std::uint64_t kPages = 96;
    const sim::vaddr_t base = 1ULL << 32;
    sep_as.MapRange(base, kPages * sim::kPageSize);
    vec_as.MapRange(base, kPages * sim::kPageSize);
    for (std::uint64_t i = 0; i < kPages; ++i) {
      sep_as.WriteWord(base + i * sim::kPageSize, 900 + i);
      vec_as.WriteWord(base + i * sim::kPageSize, 900 + i);
    }
    std::vector<sim::SwapRequest> requests;
    for (int r = 0; r < 6; ++r) {
      const std::uint64_t pages = 1 + rng.NextBelow(8);
      const std::uint64_t a = rng.NextBelow(kPages - pages);
      const std::uint64_t b = rng.NextBelow(kPages - pages);
      requests.push_back({base + a * sim::kPageSize, base + b * sim::kPageSize,
                          pages});
    }
    sim::CpuContext sep_ctx(sep_sim.machine, 0), vec_ctx(vec_sim.machine, 0);
    for (const auto& req : requests) {
      sep_sim.kernel.SysSwapVa(sep_as, sep_ctx, req.a, req.b, req.pages,
                               sim::SwapVaOptions{});
    }
    vec_sim.kernel.SysSwapVaVec(vec_as, vec_ctx, requests,
                                sim::SwapVaOptions{});
    for (std::uint64_t i = 0; i < kPages; ++i) {
      ASSERT_EQ(sep_as.ReadWord(base + i * sim::kPageSize),
                vec_as.ReadWord(base + i * sim::kPageSize))
          << "trial " << trial << " page " << i;
    }
  }
}

// Telemetry property: for any heap shape the trace's per-phase span
// durations sum bit-exactly to their cycle span's duration, and cycles tile
// the collector's timeline with no gaps (the spans are laid out from the
// same GcCycleRecord the pause accounting reads, summed in the same order).
TEST(TelemetryProperty, PhaseSpansPartitionCycleSpans) {
  Rng rng(41);
  const char* const kWorkloads[] = {"lrucache", "sparse.large", "bisort",
                                    "compress"};
  for (const char* workload : kWorkloads) {
    telemetry::TraceRecorder recorder;
    workloads::RunConfig config;
    config.workload = workload;
    config.iterations = 10 + static_cast<unsigned>(rng.NextBelow(10));
    config.gc_threads = 1 + static_cast<unsigned>(rng.NextBelow(4));
    config.machine_cores = 8;
    config.heap_factor = 1.2 + 0.1 * static_cast<double>(rng.NextBelow(4));
    config.trace_recorder = &recorder;
    const workloads::RunResult result = workloads::RunWorkload(config);
    if (result.gc_count == 0) continue;

    std::vector<telemetry::TraceEvent> cycles, phases;
    for (const telemetry::TraceEvent& e : recorder.Snapshot()) {
      if (e.cat == "gc") cycles.push_back(e);
      if (e.cat == "gc.phase") phases.push_back(e);
    }
    ASSERT_EQ(cycles.size(), result.gc_count) << workload;
    ASSERT_EQ(phases.size(), 5 * cycles.size()) << workload;
    double clock = 0.0;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
      ASSERT_EQ(cycles[c].ts, clock) << workload << " cycle " << c;
      double dur_sum = 0.0;
      for (std::size_t p = 0; p < 5; ++p) {
        dur_sum += phases[5 * c + p].dur;
      }
      ASSERT_EQ(dur_sum, cycles[c].dur) << workload << " cycle " << c;
      clock += cycles[c].dur;
    }
    // The pause recorder books each pause truncated to whole cycles, so the
    // exact span timeline leads it by less than one cycle per collection.
    ASSERT_GE(clock, result.gc_total_cycles) << workload;
    ASSERT_LT(clock - result.gc_total_cycles,
              static_cast<double>(result.gc_count))
        << workload;
  }
}

// Telemetry property: the IPI counters obey Eq. 2. Pinned compaction sends
// exactly one process-wide shootdown per cycle (c - 1 remote IPIs each);
// the naive per-call policy sends one shootdown per SwapVA kernel entry
// (the l-bar-times-c regime the paper's Fig. 9 measures).
TEST(TelemetryProperty, IpiCountersMatchEq2Bound) {
  constexpr unsigned kCores = 8;
  auto run = [&](workloads::CollectorKind kind) {
    workloads::RunConfig config;
    config.workload = "sparse.large";
    config.collector = kind;
    config.iterations = 25;
    config.gc_threads = 4;
    config.machine_cores = kCores;
    return workloads::RunWorkload(config);
  };
  auto counter = [](const workloads::RunResult& result, const char* name) {
    return workloads::FindCounter(result.machine_counters, name).value_or(0);
  };
  const auto pinned = run(workloads::CollectorKind::kSvagc);
  const auto naive = run(workloads::CollectorKind::kSvagcNaiveTlb);
  ASSERT_GT(pinned.gc_count, 0u);
  ASSERT_GT(pinned.swap_calls, 0u);

  // Structural: a shootdown broadcast always IPIs every other core.
  EXPECT_EQ(counter(pinned, "ipi.sent"),
            counter(pinned, "ipi.broadcasts") * (kCores - 1));
  EXPECT_EQ(counter(naive, "ipi.sent"),
            counter(naive, "ipi.broadcasts") * (kCores - 1));

  // Pinned regime: the only broadcasts are the one up-front
  // SysFlushProcessTlbs per cycle -> c - 1 IPIs per collection.
  EXPECT_EQ(counter(pinned, "flush.process"), pinned.gc_count);
  EXPECT_EQ(counter(pinned, "ipi.broadcasts"), pinned.gc_count);
  EXPECT_EQ(pinned.ipis_sent, pinned.gc_count * (kCores - 1));

  // Naive regime: no process-wide flushes; every SwapVA kernel entry ends
  // in its own global shootdown, so broadcasts track call count (l-bar per
  // cycle), strictly above the pinned regime's one per cycle.
  ASSERT_GT(naive.swap_calls, naive.gc_count);
  EXPECT_EQ(counter(naive, "flush.process"), 0u);
  EXPECT_EQ(counter(naive, "ipi.broadcasts"), naive.swap_calls);
  EXPECT_GT(counter(naive, "ipi.broadcasts"),
            counter(pinned, "ipi.broadcasts"));
  EXPECT_GT(naive.ipis_sent, pinned.ipis_sent);
}

// Algorithm 2's gcd cycle-following rotation equals a reference std::rotate:
// an overlapping swap of [lo, lo+P) with [lo+delta, lo+delta+P) rotates the
// whole (P + delta)-page span left by delta — including the delta-page tail,
// where the cycle structure is easiest to get wrong.
TEST(SwapVaProperty, OverlapRotationMatchesStdRotate) {
  Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t pages = 2 + rng.NextBelow(48);
    const std::uint64_t delta = 1 + rng.NextBelow(pages - 1);
    const std::uint64_t span = pages + delta;
    SimBundle sim(1);
    sim::AddressSpace as(sim.machine, sim.phys);
    const sim::vaddr_t base = 1ULL << 32;
    as.MapRange(base, span * sim::kPageSize);
    std::vector<std::uint64_t> shadow(span);
    for (std::uint64_t i = 0; i < span; ++i) {
      shadow[i] = 7000 * (trial + 1) + i;  // distinct word per page
      as.WriteWord(base + i * sim::kPageSize, shadow[i]);
    }
    sim::CpuContext ctx(sim.machine, 0);
    sim.kernel.SysSwapVa(as, ctx, base, base + delta * sim::kPageSize, pages,
                         sim::SwapVaOptions{});
    std::rotate(shadow.begin(), shadow.begin() + delta, shadow.end());
    for (std::uint64_t i = 0; i < span; ++i) {
      ASSERT_EQ(as.ReadWord(base + i * sim::kPageSize), shadow[i])
          << "trial " << trial << " pages " << pages << " delta " << delta
          << " page " << i;
    }
  }
}

// Huge-entry bookkeeping property: across any sequence of swaps — unit-
// granular, page-granular, disjoint, overlapping — the kernel's tallies obey
//   pmd_swaps * kPagesPerHuge + pte_swaps == pages_swapped
// (every page moved was placed by exactly one PMD exchange or one PTE
// exchange), the address space matches a host-side reference model, and no
// PMD entry ever holds both a leaf table and a huge leaf.
TEST(SwapVaProperty, HugeSwapCounterIdentityAndSemantics) {
  constexpr std::uint64_t kUnits = 16;
  constexpr std::uint64_t kPages = kUnits * sim::kPagesPerHuge;
  SimBundle sim(1, 128ULL << 20);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 33;
  as.MapRangeHuge(base, kUnits * sim::kHugePageSize);

  std::vector<std::uint64_t> reference(kPages);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    reference[i] = 0x700000 + i;
    as.WriteWord(base + i * sim::kPageSize, reference[i]);
  }
  sim::SwapVaOptions opts;
  opts.pmd_swapping = true;
  sim::CpuContext ctx(sim.machine, 0);
  Rng rng(77);

  for (int step = 0; step < 120; ++step) {
    std::uint64_t a, b, pages;
    if (rng.NextBelow(2) == 0) {
      // Unit-granular: exercises the PMD fast path and PMD rotation.
      const std::uint64_t units = 1 + rng.NextBelow(3);
      a = rng.NextBelow(kUnits - units) * sim::kPagesPerHuge;
      b = rng.NextBelow(kUnits - units) * sim::kPagesPerHuge;
      pages = units * sim::kPagesPerHuge;
    } else {
      // Page-granular: exercises splits and the PTE paths.
      pages = 1 + rng.NextBelow(32);
      a = rng.NextBelow(kPages - pages);
      b = rng.NextBelow(kPages - pages);
    }
    ASSERT_EQ(sim.kernel.SysSwapVa(as, ctx, base + a * sim::kPageSize,
                                   base + b * sim::kPageSize, pages, opts),
              sim::SysStatus::kOk);
    const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
    if (a == b) {
      // no-op
    } else if (hi - lo >= pages) {
      std::swap_ranges(reference.begin() + a, reference.begin() + a + pages,
                       reference.begin() + b);
    } else {
      const std::uint64_t delta = hi - lo;
      const std::uint64_t span = pages + delta;
      std::vector<std::uint64_t> rotated(span);
      for (std::uint64_t j = 0; j < span; ++j) {
        rotated[j] = reference[lo + (j + delta) % span];
      }
      std::copy(rotated.begin(), rotated.end(), reference.begin() + lo);
    }
    ASSERT_EQ(sim.kernel.pmd_swaps() * sim::kPagesPerHuge +
                  sim.kernel.pte_swaps(),
              sim.kernel.pages_swapped())
        << "step " << step;
    ASSERT_EQ(as.translation().CountAliasedUnits(), 0u) << "step " << step;
  }
  for (std::uint64_t i = 0; i < kPages; ++i) {
    ASSERT_EQ(as.ReadWord(base + i * sim::kPageSize), reference[i]) << i;
  }
  // The sweep genuinely hit both paths.
  EXPECT_GT(sim.kernel.pmd_swaps(), 0u);
  EXPECT_GT(sim.kernel.pte_swaps(), 0u);
  EXPECT_GT(sim.kernel.pmd_splits(), 0u);
}

}  // namespace
}  // namespace svagc
