// Tests for the individual LISP2 phases: marking (serial and parallel),
// forwarding-address calculation, pointer adjustment, and Table I.
#include <gtest/gtest.h>

#include <map>

#include "gc/applicability.h"
#include "gc/forwarding.h"
#include "gc/parallel_lisp2.h"
#include "gc/mark.h"
#include "runtime/heap_verifier.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace svagc::gc {
namespace {

using svagc::testing::SimBundle;

class PhaseTest : public ::testing::Test {
 protected:
  PhaseTest() {
    rt::JvmConfig config;
    config.heap.capacity = 16 << 20;
    jvm_ = std::make_unique<rt::Jvm>(sim_.machine, sim_.phys, sim_.kernel,
                                     config);
    jvm_->set_collector(std::make_unique<ParallelLisp2>(sim_.machine, 1, 0));
  }

  // Builds a random object graph: `count` objects, some large, random refs,
  // a fraction reachable from the root table.
  void BuildGraph(unsigned count, double root_fraction, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<rt::vaddr_t> objects;
    const auto table = jvm_->New(2, count, 0);
    table_handle_ = jvm_->roots().Add(table);
    for (unsigned i = 0; i < count; ++i) {
      const bool large = rng.NextBelow(8) == 0;
      const std::uint64_t data =
          large ? 10 * sim::kPageSize + rng.NextBelow(3 * sim::kPageSize)
                : 8 * (1 + rng.NextBelow(64));
      const std::uint32_t nrefs = static_cast<std::uint32_t>(rng.NextBelow(4));
      const rt::vaddr_t obj =
          jvm_->New(1, nrefs, data, static_cast<unsigned>(rng.NextBelow(2)));
      // Root only a fraction through the table; the rest die unless
      // referenced by a rooted object.
      if (rng.NextDouble() < root_fraction) {
        jvm_->View(jvm_->roots().Get(table_handle_)).set_ref(i, obj);
      }
      objects.push_back(obj);
    }
    // Random internal edges (possibly creating cycles and shared targets).
    for (const rt::vaddr_t obj : objects) {
      rt::ObjectView view = jvm_->View(obj);
      for (std::uint32_t r = 0; r < view.num_refs(); ++r) {
        view.set_ref(r, objects[rng.NextBelow(objects.size())]);
      }
    }
    jvm_->RetireAllTlabs();
  }

  // Reference reachability via a host-side set.
  std::uint64_t CountReachable() {
    std::unordered_set<rt::vaddr_t> seen;
    std::vector<rt::vaddr_t> stack;
    jvm_->roots().ForEachSlot([&](rt::vaddr_t& s) { stack.push_back(s); });
    while (!stack.empty()) {
      const rt::vaddr_t a = stack.back();
      stack.pop_back();
      if (!seen.insert(a).second) continue;
      rt::ObjectView v = jvm_->View(a);
      for (std::uint32_t r = 0; r < v.num_refs(); ++r) {
        if (v.ref(r) != 0) stack.push_back(v.ref(r));
      }
    }
    return seen.size();
  }

  SimBundle sim_{4, 256ULL << 20};
  std::unique_ptr<rt::Jvm> jvm_;
  rt::RootSet::Handle table_handle_ = 0;
};

// --- marking -----------------------------------------------------------------

TEST_F(PhaseTest, SerialMarkFindsExactlyTheReachableSet) {
  BuildGraph(400, 0.5, 1);
  MarkBitmap bitmap(jvm_->heap());
  bitmap.Clear();
  ParallelLisp2 collector(sim_.machine, 1, 0);
  const MarkStats stats = MarkSerial(*jvm_, bitmap, collector.worker_ctx(0),
                                     collector.costs());
  EXPECT_EQ(stats.live_objects, CountReachable());
  // Every reachable object is marked; spot-check via the table.
  rt::ObjectView table = jvm_->View(jvm_->roots().Get(table_handle_));
  for (std::uint32_t i = 0; i < table.num_refs(); ++i) {
    if (table.ref(i) != 0) {
      EXPECT_TRUE(bitmap.IsMarked(table.ref(i)));
    }
  }
}

class ParallelMarkSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelMarkSweep, MatchesSerialMarking) {
  const unsigned gc_threads = GetParam();
  SimBundle sim(8, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 16 << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(std::make_unique<ParallelLisp2>(sim.machine, 1, 0));
  // Graph with shared substructure and cycles.
  Rng rng(77);
  std::vector<rt::vaddr_t> objects;
  const auto table = jvm.New(2, 256, 0);
  const auto root = jvm.roots().Add(table);
  for (unsigned i = 0; i < 256; ++i) {
    const rt::vaddr_t obj = jvm.New(1, 2, 64);
    if (i % 3 == 0) jvm.View(jvm.roots().Get(root)).set_ref(i, obj);
    objects.push_back(obj);
  }
  for (const rt::vaddr_t obj : objects) {
    rt::ObjectView view = jvm.View(obj);
    view.set_ref(0, objects[rng.NextBelow(objects.size())]);
    view.set_ref(1, rng.NextBelow(3) == 0
                        ? 0
                        : objects[rng.NextBelow(objects.size())]);
  }
  jvm.RetireAllTlabs();

  MarkBitmap serial_bitmap(jvm.heap());
  serial_bitmap.Clear();
  ParallelLisp2 serial(sim.machine, 1, 0);
  const MarkStats serial_stats =
      MarkSerial(jvm, serial_bitmap, serial.worker_ctx(0), serial.costs());

  MarkBitmap parallel_bitmap(jvm.heap());
  parallel_bitmap.Clear();
  ParallelLisp2 parallel(sim.machine, gc_threads, 0);
  double cp = 0;
  const MarkStats parallel_stats =
      MarkParallel(jvm, parallel_bitmap, parallel, &cp);

  EXPECT_EQ(parallel_stats.live_objects, serial_stats.live_objects);
  EXPECT_EQ(parallel_stats.live_bytes, serial_stats.live_bytes);
  EXPECT_GT(cp, 0.0);
  jvm.heap().ForEachObject([&](rt::vaddr_t addr, std::uint64_t) {
    EXPECT_EQ(parallel_bitmap.IsMarked(addr), serial_bitmap.IsMarked(addr));
  });
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelMarkSweep,
                         ::testing::Values(1, 2, 4, 8));

// --- forwarding --------------------------------------------------------------

TEST_F(PhaseTest, ForwardingIsMonotoneAndPacked) {
  BuildGraph(300, 0.4, 2);
  MarkBitmap bitmap(jvm_->heap());
  bitmap.Clear();
  ParallelLisp2 collector(sim_.machine, 1, 0);
  MarkSerial(*jvm_, bitmap, collector.worker_ctx(0), collector.costs());
  const ForwardingResult fwd = ComputeForwarding(
      *jvm_, bitmap, collector.worker_ctx(0), collector.costs(),
      kDefaultRegionBytes);

  rt::vaddr_t prev_end = jvm_->heap().base();
  for (const rt::vaddr_t addr : fwd.live) {
    rt::ObjectView view = jvm_->View(addr);
    const rt::vaddr_t dst = view.forwarding();
    EXPECT_GE(dst, prev_end);         // destinations never overlap
    EXPECT_LE(dst, addr);             // sliding compaction moves left only
    if (jvm_->heap().IsLargeObject(view.size())) {
      EXPECT_TRUE(IsAligned(dst, sim::kPageSize));
      prev_end = AlignUp(dst + view.size(), sim::kPageSize);
    } else {
      prev_end = dst + view.size();
    }
  }
  EXPECT_EQ(fwd.plan.new_top, prev_end);
  EXPECT_EQ(fwd.plan.live_objects, fwd.live.size());
}

TEST_F(PhaseTest, ForwardingFillersTileTheDestGaps) {
  BuildGraph(300, 0.4, 3);
  MarkBitmap bitmap(jvm_->heap());
  bitmap.Clear();
  ParallelLisp2 collector(sim_.machine, 1, 0);
  MarkSerial(*jvm_, bitmap, collector.worker_ctx(0), collector.costs());
  const ForwardingResult fwd = ComputeForwarding(
      *jvm_, bitmap, collector.worker_ctx(0), collector.costs(),
      kDefaultRegionBytes);
  // Dest extents plus fillers must tile [base, new_top) exactly.
  std::map<rt::vaddr_t, std::uint64_t> spans;
  for (const rt::vaddr_t addr : fwd.live) {
    rt::ObjectView view = jvm_->View(addr);
    spans[view.forwarding()] = view.size();
  }
  for (const auto& [addr, bytes] : fwd.plan.fillers) spans[addr] = bytes;
  rt::vaddr_t cursor = jvm_->heap().base();
  for (const auto& [addr, bytes] : spans) {
    EXPECT_EQ(addr, cursor) << "hole or overlap in the compaction image";
    cursor = addr + bytes;
  }
  EXPECT_EQ(cursor, fwd.plan.new_top);
}

TEST_F(PhaseTest, RegionDependenciesPointLeft) {
  BuildGraph(300, 0.4, 4);
  MarkBitmap bitmap(jvm_->heap());
  bitmap.Clear();
  ParallelLisp2 collector(sim_.machine, 1, 0);
  MarkSerial(*jvm_, bitmap, collector.worker_ctx(0), collector.costs());
  const ForwardingResult fwd = ComputeForwarding(
      *jvm_, bitmap, collector.worker_ctx(0), collector.costs(),
      /*region_bytes=*/64 * sim::kPageSize);
  const CompactionPlan& plan = fwd.plan;
  for (std::uint64_t r = 0; r < plan.region_moves.size(); ++r) {
    if (plan.region_moves[r].empty()) continue;
    ASSERT_NE(plan.region_dep[r], kNoDep);
    EXPECT_LE(plan.region_dep[r], r);
    for (const Move& move : plan.region_moves[r]) {
      EXPECT_EQ((move.src - jvm_->heap().base()) / (64 * sim::kPageSize), r);
      EXPECT_LT(move.dst, move.src);
    }
  }
}

TEST_F(PhaseTest, EvacuateAllLivePlansEveryObject) {
  BuildGraph(100, 1.0, 5);
  MarkBitmap bitmap(jvm_->heap());
  bitmap.Clear();
  ParallelLisp2 collector(sim_.machine, 1, 0);
  const MarkStats stats =
      MarkSerial(*jvm_, bitmap, collector.worker_ctx(0), collector.costs());
  const ForwardingResult fwd = ComputeForwarding(
      *jvm_, bitmap, collector.worker_ctx(0), collector.costs(),
      kDefaultRegionBytes, /*evacuate_all_live=*/true);
  EXPECT_EQ(fwd.plan.moved_objects(), stats.live_objects);
}

// --- parallel forwarding -----------------------------------------------------

// The region-summary pipeline must reproduce the serial plan bit for bit:
// every forwarding slot, the live list, the per-region move lists, the
// dependency bounds, the filler spans, and the counters.
class ParallelForwarding : public ::testing::TestWithParam<unsigned> {
 protected:
  enum Shape { kSmallOnly, kLargeOnly, kMixed, kHugeMixed };

  static std::uint64_t DataBytes(Shape shape, Rng& rng) {
    if (shape == kHugeMixed && rng.NextBelow(6) == 0) {
      // At or just past one 2 MiB unit: huge-class objects whose ragged
      // tails make the summary-prefix alignment interesting.
      return sim::kHugePageSize + 8 * rng.NextBelow(2 * 512);
    }
    const bool large = shape == kLargeOnly ||
                       (shape != kSmallOnly && rng.NextBelow(8) == 0);
    return large ? 10 * sim::kPageSize + 8 * rng.NextBelow(3 * 512)
                 : 8 * (1 + rng.NextBelow(64));
  }

  void ExpectPlanMatchesSerial(Shape shape, std::uint64_t region_bytes,
                               bool evacuate_all_live = false) {
    const unsigned gc_threads = GetParam();
    SimBundle sim(8, shape == kHugeMixed ? 512ULL << 20 : 256ULL << 20);
    rt::JvmConfig config;
    config.heap.capacity = 32 << 20;
    if (shape == kHugeMixed) {
      // 2 MiB alignment class on: forwarding must reproduce the three-level
      // alignment assignment (none / page / huge) identically in parallel.
      config.heap.huge_threshold_pages = 256;
      config.heap.capacity = 160 << 20;
    }
    rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
    jvm.set_collector(std::make_unique<ParallelLisp2>(sim.machine, 1, 0));

    // Half-rooted random heap: the dead gaps force displaced moves in every
    // region, and the unrooted tail keeps new_top well below old top.
    Rng rng(91 + static_cast<std::uint64_t>(shape));
    const unsigned count =
        shape == kLargeOnly ? 250 : (shape == kHugeMixed ? 72 : 600);
    const auto table = jvm.New(2, count, 0);
    const auto root = jvm.roots().Add(table);
    for (unsigned i = 0; i < count; ++i) {
      const rt::vaddr_t obj =
          jvm.New(1, 0, DataBytes(shape, rng),
                  static_cast<unsigned>(rng.NextBelow(2)));
      if (rng.NextDouble() < 0.5) {
        jvm.View(jvm.roots().Get(root)).set_ref(i, obj);
      }
    }
    jvm.RetireAllTlabs();

    MarkBitmap bitmap(jvm.heap());
    bitmap.Clear();
    ParallelLisp2 serial(sim.machine, 1, 0);
    MarkSerial(jvm, bitmap, serial.worker_ctx(0), serial.costs());
    const ForwardingResult want = ComputeForwarding(
        jvm, bitmap, serial.worker_ctx(0), serial.costs(), region_bytes,
        evacuate_all_live);
    // Forwarding slots get rewritten by the parallel pass, so snapshot the
    // serial assignment first.
    std::vector<rt::vaddr_t> want_dst;
    want_dst.reserve(want.live.size());
    for (const rt::vaddr_t addr : want.live) {
      want_dst.push_back(jvm.View(addr).forwarding());
    }

    ParallelLisp2 parallel(sim.machine, gc_threads, 0);
    double cp = 0;
    const ForwardingResult got = ComputeForwardingParallel(
        jvm, bitmap, parallel, region_bytes, evacuate_all_live, &cp);

    EXPECT_GT(cp, 0.0);
    EXPECT_EQ(got.live, want.live);
    ASSERT_EQ(got.live.size(), want_dst.size());
    for (std::size_t i = 0; i < got.live.size(); ++i) {
      ASSERT_EQ(jvm.View(got.live[i]).forwarding(), want_dst[i])
          << "forwarding slot " << i << " diverges";
    }
    EXPECT_EQ(got.plan.region_bytes, want.plan.region_bytes);
    EXPECT_EQ(got.plan.region_moves, want.plan.region_moves);
    EXPECT_EQ(got.plan.region_dep, want.plan.region_dep);
    EXPECT_EQ(got.plan.fillers, want.plan.fillers);
    EXPECT_EQ(got.plan.new_top, want.plan.new_top);
    EXPECT_EQ(got.plan.live_objects, want.plan.live_objects);
    EXPECT_EQ(got.plan.live_bytes, want.plan.live_bytes);
    EXPECT_EQ(got.plan.moved_objects(), want.plan.moved_objects());
  }
};

TEST_P(ParallelForwarding, SmallObjectPlanIsBitIdentical) {
  ExpectPlanMatchesSerial(kSmallOnly, kDefaultRegionBytes);
}

TEST_P(ParallelForwarding, LargeObjectPlanIsBitIdentical) {
  ExpectPlanMatchesSerial(kLargeOnly, kDefaultRegionBytes);
}

TEST_P(ParallelForwarding, MixedPlanIsBitIdenticalWithSmallRegions) {
  // 16-page regions: large objects straddle region boundaries, exercising
  // the summary tail and the cross-region install alignment.
  ExpectPlanMatchesSerial(kMixed, 16 * sim::kPageSize);
}

TEST_P(ParallelForwarding, MixedEvacuateAllPlanIsBitIdentical) {
  ExpectPlanMatchesSerial(kMixed, kDefaultRegionBytes,
                          /*evacuate_all_live=*/true);
}

TEST_P(ParallelForwarding, HugeAlignedPlanIsBitIdentical) {
  ExpectPlanMatchesSerial(kHugeMixed, kDefaultRegionBytes);
}

TEST_P(ParallelForwarding, HugeAlignedPlanIsBitIdenticalWithSmallRegions) {
  // 2 MiB-class objects straddle many 16-page regions, so the huge alignment
  // decision rides on the forwarded summary prefix, not local information.
  ExpectPlanMatchesSerial(kHugeMixed, 16 * sim::kPageSize);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelForwarding,
                         ::testing::Values(1, 2, 4, 8));

// --- adjust ------------------------------------------------------------------

TEST_F(PhaseTest, AdjustRewritesRefsAndRootsToForwardedAddresses) {
  BuildGraph(200, 0.5, 6);
  MarkBitmap bitmap(jvm_->heap());
  bitmap.Clear();
  ParallelLisp2 collector(sim_.machine, 1, 0);
  MarkSerial(*jvm_, bitmap, collector.worker_ctx(0), collector.costs());
  ForwardingResult fwd = ComputeForwarding(*jvm_, bitmap,
                                           collector.worker_ctx(0),
                                           collector.costs(),
                                           kDefaultRegionBytes);
  // Record expected mapping old -> new.
  std::map<rt::vaddr_t, rt::vaddr_t> expected;
  for (const rt::vaddr_t addr : fwd.live) {
    expected[addr] = jvm_->View(addr).forwarding();
  }
  // Snapshot pre-adjust refs.
  std::map<rt::vaddr_t, std::vector<rt::vaddr_t>> old_refs;
  for (const rt::vaddr_t addr : fwd.live) {
    rt::ObjectView view = jvm_->View(addr);
    for (std::uint32_t r = 0; r < view.num_refs(); ++r) {
      old_refs[addr].push_back(view.ref(r));
    }
  }
  AdjustReferences(*jvm_, fwd.live, collector.worker_ctx(0),
                   collector.costs(), 0, 1);
  for (const rt::vaddr_t addr : fwd.live) {
    rt::ObjectView view = jvm_->View(addr);
    for (std::uint32_t r = 0; r < view.num_refs(); ++r) {
      const rt::vaddr_t old_target = old_refs[addr][r];
      if (old_target == 0) {
        EXPECT_EQ(view.ref(r), 0u);
      } else {
        EXPECT_EQ(view.ref(r), expected.at(old_target));
      }
    }
  }
  jvm_->roots().ForEachSlot([&](rt::vaddr_t& slot) {
    // Root slots now hold destination addresses.
    bool found = false;
    for (const auto& [from, to] : expected) found |= (slot == to);
    EXPECT_TRUE(found);
  });
}

// --- Table I -----------------------------------------------------------------

TEST(Applicability, MatchesPaperTableI) {
  using P = GcPhaseClass;
  using O = SwapVaOptimization;
  const struct {
    P phase;
    bool swapva, aggregation, pmd, overlap;
  } expected[] = {
      {P::kFullMajorCompact, true, true, true, true},
      {P::kMinorCopy, true, true, true, false},
      {P::kConcurrentEvacuation, true, false, true, false},
  };
  for (const auto& row : expected) {
    EXPECT_EQ(OptimizationApplies(row.phase, O::kSwapVa), row.swapva);
    EXPECT_EQ(OptimizationApplies(row.phase, O::kAggregation), row.aggregation);
    EXPECT_EQ(OptimizationApplies(row.phase, O::kPmdCaching), row.pmd);
    EXPECT_EQ(OptimizationApplies(row.phase, O::kOverlapping), row.overlap);
  }
}

TEST(Applicability, NamesAreHuman) {
  EXPECT_STRNE(GcPhaseClassName(GcPhaseClass::kMinorCopy), "?");
  EXPECT_STRNE(OptimizationName(SwapVaOptimization::kOverlapping), "?");
}

}  // namespace
}  // namespace svagc::gc
