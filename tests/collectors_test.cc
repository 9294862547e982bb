// Whole-collector correctness: every collector must preserve the reachable
// object graph bit-for-bit (structural checksum), leave a verifiable heap,
// reclaim garbage, and record its pauses. Parameterized across collectors
// and randomized object-graph shapes.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/generational_collector.h"
#include "core/svagc_collector.h"
#include "gc/shenandoah_gc.h"
#include "runtime/heap_verifier.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace svagc {
namespace {

using svagc::testing::ChecksumReachable;
using svagc::testing::SimBundle;

enum class Kind {
  kSerial,
  kParallel,
  kParallelGc,
  kShenandoah,
  kSvagc,
  kSvagcNoSwap,
  kSvagcNoAggregation,
  kSvagcNaiveTlb,
  kSvagcNoPmdCache,
};

std::unique_ptr<rt::CollectorIface> Make(Kind kind, sim::Machine& machine) {
  core::SvagcConfig config;
  switch (kind) {
    case Kind::kSerial:
      return std::make_unique<gc::ParallelLisp2>(machine, 1, 0, "SerialLISP2");
    case Kind::kParallel:
      return std::make_unique<gc::ParallelLisp2>(machine, 4, 0);
    case Kind::kParallelGc:
      return std::make_unique<gc::ParallelLisp2>(machine, 4, 0, "ParallelGC");
    case Kind::kShenandoah:
      return std::make_unique<gc::ShenandoahLike>(machine, 4, 0);
    case Kind::kSvagc:
      return std::make_unique<core::SvagcCollector>(machine, 4, 0, config);
    case Kind::kSvagcNoSwap:
      config.move.use_swapva = false;
      return std::make_unique<core::SvagcCollector>(machine, 4, 0, config);
    case Kind::kSvagcNoAggregation:
      config.move.aggregate = false;
      return std::make_unique<core::SvagcCollector>(machine, 4, 0, config);
    case Kind::kSvagcNaiveTlb:
      config.pinned_compaction = false;
      return std::make_unique<core::SvagcCollector>(machine, 4, 0, config);
    case Kind::kSvagcNoPmdCache:
      config.move.pmd_caching = false;
      return std::make_unique<core::SvagcCollector>(machine, 4, 0, config);
  }
  return nullptr;
}

bool IsAligned_(Kind kind) {
  switch (kind) {
    case Kind::kSvagc:
    case Kind::kSvagcNoSwap:
    case Kind::kSvagcNoAggregation:
    case Kind::kSvagcNaiveTlb:
    case Kind::kSvagcNoPmdCache:
      return true;
    default:
      return false;
  }
}

struct Case {
  Kind kind;
  std::uint64_t seed;
};

class CollectorGraphTest : public ::testing::TestWithParam<Case> {};

// Drives a mutator that builds/overwrites a random graph with large and
// small objects, forcing several collections; checks integrity after each.
TEST_P(CollectorGraphTest, PreservesReachableGraphAcrossCollections) {
  const auto [kind, seed] = GetParam();
  SimBundle sim(8, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 2 << 20;
  config.heap.page_align_large = IsAligned_(kind);
  config.logical_threads = 3;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(Make(kind, sim.machine));

  Rng rng(seed);
  constexpr unsigned kSlots = 48;
  constexpr unsigned kLeaves = 8;
  const auto table = jvm.New(2, kSlots + kLeaves, 0);
  const auto root = jvm.roots().Add(table);
  // Immortal leaf objects referenced by the churn population (bounded live
  // set) plus one reference cycle to exercise cyclic marking every GC.
  for (unsigned i = 0; i < kLeaves; ++i) {
    const rt::vaddr_t leaf = jvm.New(1, 1, 64);
    jvm.View(jvm.roots().Get(root)).set_ref(kSlots + i, leaf);
  }
  {
    rt::ObjectView tbl = jvm.View(jvm.roots().Get(root));
    rt::ObjectView first_leaf = jvm.View(tbl.ref(kSlots));
    first_leaf.set_ref(0, tbl.ref(kSlots + 1));
    jvm.View(tbl.ref(kSlots + 1)).set_ref(0, tbl.ref(kSlots));
  }

  auto new_object = [&]() {
    const bool large = rng.NextBelow(4) == 0;
    const std::uint64_t data =
        large ? 10 * sim::kPageSize + 8 * rng.NextBelow(2048)
              : 8 + 8 * rng.NextBelow(256);
    const auto nrefs = static_cast<std::uint32_t>(rng.NextBelow(3));
    const rt::vaddr_t obj =
        jvm.New(1, nrefs, data, static_cast<unsigned>(rng.NextBelow(3)));
    rt::ObjectView view = jvm.View(obj);
    for (std::uint64_t w = 0; w < view.data_words(); w += 16) {
      view.set_data_word(w, rng.NextU64());
    }
    // Wire refs to the immortal leaves (no alloc between New and here);
    // pointing at churn slots would chain the whole allocation history
    // alive and the live set would grow without bound.
    rt::ObjectView tbl = jvm.View(jvm.roots().Get(root));
    for (std::uint32_t r = 0; r < nrefs; ++r) {
      view.set_ref(r, tbl.ref(kSlots + rng.NextBelow(kLeaves)));
    }
    return obj;
  };

  std::uint64_t last_gc_count = 0;
  for (int step = 0; step < 600; ++step) {
    const rt::vaddr_t obj = new_object();
    jvm.View(jvm.roots().Get(root))
        .set_ref(static_cast<std::uint32_t>(rng.NextBelow(kSlots)), obj);
    if (jvm.gc_count() != last_gc_count) {
      last_gc_count = jvm.gc_count();
      const std::uint64_t checksum = ChecksumReachable(jvm);
      const rt::VerifyResult verify = rt::VerifyHeap(jvm);
      ASSERT_TRUE(verify.ok) << verify.error << " at step " << step;
      // The checksum must be stable across an *explicit* extra collection
      // (nothing became unreachable in between).
      jvm.collector().Collect(jvm);
      ASSERT_EQ(ChecksumReachable(jvm), checksum) << "step " << step;
    }
  }
  EXPECT_GT(jvm.gc_count(), 2u) << "heap sized to force several collections";
  EXPECT_GE(jvm.collector().log().collections, jvm.gc_count());
  EXPECT_GT(jvm.collector().log().pauses.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCollectorsAndSeeds, CollectorGraphTest,
    ::testing::Values(
        Case{Kind::kSerial, 1}, Case{Kind::kSerial, 2},
        Case{Kind::kParallel, 1}, Case{Kind::kParallel, 2},
        Case{Kind::kParallelGc, 3}, Case{Kind::kShenandoah, 1},
        Case{Kind::kShenandoah, 4}, Case{Kind::kSvagc, 1},
        Case{Kind::kSvagc, 2}, Case{Kind::kSvagc, 3},
        Case{Kind::kSvagcNoSwap, 1}, Case{Kind::kSvagcNoAggregation, 1},
        Case{Kind::kSvagcNoAggregation, 2}, Case{Kind::kSvagcNaiveTlb, 1},
        Case{Kind::kSvagcNoPmdCache, 1}));

// Garbage is actually reclaimed: dropping the only root must return the
// heap to (nearly) empty after a collection.
class ReclaimTest : public ::testing::TestWithParam<Kind> {};

TEST_P(ReclaimTest, DroppedGraphIsReclaimed) {
  SimBundle sim(4, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 8 << 20;
  config.heap.page_align_large = IsAligned_(GetParam());
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(Make(GetParam(), sim.machine));

  const auto table = jvm.New(2, 16, 0);
  const auto root = jvm.roots().Add(table);
  for (unsigned i = 0; i < 16; ++i) {
    const rt::vaddr_t obj = jvm.New(1, 0, 64 * 1024);
    jvm.View(jvm.roots().Get(root)).set_ref(i, obj);
  }
  jvm.collector().Collect(jvm);
  const std::uint64_t live_used = jvm.heap().used();

  jvm.roots().Remove(root);
  jvm.collector().Collect(jvm);
  EXPECT_EQ(jvm.heap().used(), 0u);
  EXPECT_LT(jvm.heap().used(), live_used);
}

TEST_P(ReclaimTest, UnmovedPrefixStaysInPlace) {
  SimBundle sim(4, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 8 << 20;
  config.heap.page_align_large = IsAligned_(GetParam());
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(Make(GetParam(), sim.machine));
  const rt::vaddr_t first = jvm.New(1, 0, 256);
  const auto root = jvm.roots().Add(first);
  jvm.collector().Collect(jvm);
  if (GetParam() == Kind::kShenandoah) {
    // Evacuating collectors may relocate everything; just check liveness.
    EXPECT_NE(jvm.roots().Get(root), 0u);
  } else {
    // Sliding compaction: the dense prefix does not move.
    EXPECT_EQ(jvm.roots().Get(root), first);
  }
}

INSTANTIATE_TEST_SUITE_P(Collectors, ReclaimTest,
                         ::testing::Values(Kind::kSerial, Kind::kParallel,
                                           Kind::kParallelGc,
                                           Kind::kShenandoah, Kind::kSvagc,
                                           Kind::kSvagcNoSwap));

// --- the cycle makes its own heap parsable -----------------------------------

// The three ways a full cycle is driven: a plain ParallelLisp2, SVAGC, and
// SVAGC behind the generational front end. The front end's barrier and
// allocation hooks stay unwired, so every object lands in a mutator TLAB.
std::unique_ptr<rt::CollectorIface> MakeCycleDriver(const std::string& name,
                                                   sim::Machine& machine) {
  if (name == "ParallelLisp2") {
    return std::make_unique<gc::ParallelLisp2>(machine, 2, 0);
  }
  auto svagc = std::make_unique<core::SvagcCollector>(machine, 2, 0);
  if (name == "Svagc") return svagc;
  core::GenerationalConfig config;
  config.gang_workers = 2;
  return std::make_unique<core::GenerationalCollector>(
      machine, 0, std::move(svagc), config);
}

class LiveTlabCollect : public ::testing::TestWithParam<std::string> {};

// Collect() entered straight from mutator code, every logical thread's TLAB
// still open and no manual retire: the cycle closes the TLABs itself, and
// the heap verifies with the reachable graph intact.
TEST_P(LiveTlabCollect, CycleRetiresEveryTlab) {
  SimBundle sim(4, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 8 << 20;
  config.logical_threads = 3;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(MakeCycleDriver(GetParam(), sim.machine));

  const auto root = jvm.roots().Add(jvm.New(2, 8, 0));
  for (unsigned i = 0; i < 24; ++i) {
    const rt::vaddr_t obj = jvm.New(1, 0, 512 + 64 * i, i % 3);
    if (i % 3 == 0) jvm.View(jvm.roots().Get(root)).set_ref(i / 3, obj);
  }
  for (unsigned t = 0; t < jvm.num_mutators(); ++t) {
    ASSERT_TRUE(jvm.mutator(t).tlab.valid()) << "thread " << t;
  }
  const std::uint64_t checksum = ChecksumReachable(jvm);

  jvm.collector().Collect(jvm);
  EXPECT_EQ(jvm.collector().log().collections, 1u);
  for (unsigned t = 0; t < jvm.num_mutators(); ++t) {
    EXPECT_FALSE(jvm.mutator(t).tlab.valid()) << "thread " << t;
  }
  const rt::VerifyResult verify = rt::VerifyHeap(jvm);
  EXPECT_TRUE(verify.ok) << verify.error;
  EXPECT_EQ(ChecksumReachable(jvm), checksum);
}

INSTANTIATE_TEST_SUITE_P(Drivers, LiveTlabCollect,
                         ::testing::Values("ParallelLisp2", "Svagc",
                                           "Generational"),
                         [](const auto& info) { return info.param; });

// --- SVAGC-specific behaviour ------------------------------------------------

TEST(SvagcCollector, SwapsLargeObjectsAndCopiesSmallOnes) {
  SimBundle sim(4, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 8 << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  auto collector = std::make_unique<core::SvagcCollector>(sim.machine, 2, 0);
  core::SvagcCollector* svagc = collector.get();
  jvm.set_collector(std::move(collector));

  // Dead small objects first so the surviving small object must slide,
  // then a rooted small and a rooted large object.
  const auto root = jvm.roots().Add(jvm.New(2, 8, 0));
  for (int i = 0; i < 30; ++i) jvm.New(1, 0, 4096);  // dies
  const rt::vaddr_t small = jvm.New(1, 0, 512);
  jvm.View(jvm.roots().Get(root)).set_ref(1, small);
  jvm.New(1, 0, 300 * 1024);  // dies (shared space)
  const rt::vaddr_t big = jvm.New(1, 0, 20 * sim::kPageSize);
  jvm.View(jvm.roots().Get(root)).set_ref(0, big);
  jvm.collector().Collect(jvm);

  const telemetry::MetricsRegistry& metrics = svagc->metrics();
  EXPECT_GE(metrics.CounterValue("gc.objects_swapped"), 1u);
  EXPECT_GE(metrics.CounterValue("gc.objects_copied"), 1u);
  EXPECT_GE(metrics.CounterValue("gc.bytes_swapped"), 20 * sim::kPageSize);
  EXPECT_GT(metrics.CounterValue("gc.swap_calls"), 0u);
  const rt::VerifyResult verify = rt::VerifyHeap(jvm);
  EXPECT_TRUE(verify.ok) << verify.error;
}

TEST(SvagcCollector, ThresholdIsRespected) {
  SimBundle sim(4, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 8 << 20;
  config.heap.swap_threshold_pages = 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  core::SvagcConfig svagc_config;
  svagc_config.move.threshold_pages = 20;
  auto collector =
      std::make_unique<core::SvagcCollector>(sim.machine, 2, 0, svagc_config);
  core::SvagcCollector* svagc = collector.get();
  jvm.set_collector(std::move(collector));

  const auto root = jvm.roots().Add(jvm.New(2, 4, 0));
  jvm.New(1, 0, 64 * 1024);  // dies, creates a gap
  const rt::vaddr_t below = jvm.New(1, 0, 15 * sim::kPageSize);  // < 20 pages
  jvm.View(jvm.roots().Get(root)).set_ref(0, below);
  jvm.collector().Collect(jvm);
  EXPECT_EQ(svagc->metrics().CounterValue("gc.objects_swapped"), 0u);
}

TEST(SvagcCollector, PinnedModeSendsOneShootdownPerCycle) {
  SimBundle sim(8, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 8 << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(std::make_unique<core::SvagcCollector>(sim.machine, 2, 0));

  const auto root = jvm.roots().Add(jvm.New(2, 8, 0));
  jvm.New(1, 0, 200 * 1024);  // garbage
  for (unsigned i = 0; i < 6; ++i) {
    const rt::vaddr_t obj = jvm.New(1, 0, 12 * sim::kPageSize);
    jvm.View(jvm.roots().Get(root)).set_ref(i, obj);
  }
  sim.machine.ResetCounters();
  jvm.collector().Collect(jvm);
  // Algorithm 4: exactly one process-wide shootdown (c-1 IPIs), regardless
  // of how many objects were swapped.
  EXPECT_EQ(sim.machine.metrics().CounterValue("ipi.sent"),
            sim.machine.num_cores() - 1);
}

TEST(SvagcCollector, NaiveModeShootsDownPerCall) {
  SimBundle sim(8, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 8 << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  core::SvagcConfig svagc_config;
  svagc_config.pinned_compaction = false;
  svagc_config.move.aggregate = false;  // one call per object
  jvm.set_collector(
      std::make_unique<core::SvagcCollector>(sim.machine, 2, 0, svagc_config));

  const auto root = jvm.roots().Add(jvm.New(2, 8, 0));
  jvm.New(1, 0, 200 * 1024);  // garbage
  constexpr unsigned kLarge = 6;
  for (unsigned i = 0; i < kLarge; ++i) {
    const rt::vaddr_t obj = jvm.New(1, 0, 12 * sim::kPageSize);
    jvm.View(jvm.roots().Get(root)).set_ref(i, obj);
  }
  sim.machine.ResetCounters();
  jvm.collector().Collect(jvm);
  // l * (c-1) IPIs: one broadcast per swapped object (Eq. 2's unoptimized
  // numerator).
  EXPECT_EQ(sim.machine.metrics().CounterValue("ipi.sent"),
            kLarge * (sim.machine.num_cores() - 1));
}

TEST(SvagcCollector, LogExposesSwapTraffic) {
  SimBundle sim(4, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 8 << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  auto svagc = std::make_unique<core::SvagcCollector>(sim.machine, 2, 0);
  const telemetry::MetricsRegistry& metrics = svagc->metrics();
  jvm.set_collector(std::move(svagc));
  const auto root = jvm.roots().Add(jvm.New(2, 2, 0));
  jvm.New(1, 0, 100 * 1024);  // garbage
  const rt::vaddr_t obj = jvm.New(1, 0, 16 * sim::kPageSize);
  jvm.View(jvm.roots().Get(root)).set_ref(0, obj);
  jvm.collector().Collect(jvm);
  const rt::GcLog& log = jvm.collector().log();
  EXPECT_EQ(log.collections, 1u);
  EXPECT_GT(metrics.CounterValue("gc.bytes_swapped"), 0u);
  EXPECT_GT(metrics.CounterValue("gc.swap_calls"), 0u);
  EXPECT_EQ(log.cycles.size(), 1u);
  EXPECT_GT(log.cycles[0].compact, 0.0);
}

}  // namespace
}  // namespace svagc
