// Compaction-plan optimizer tests: exactness of the rewritten plans (the
// optimizer must never change what the heap looks like after compaction,
// only how the moves are batched), counter identities over the coalesced
// runs, SwapVA page conservation through the run-aware mover, the analytic
// Fig. 10 threshold crossover, and digest-identity of optimized vs
// unoptimized collections across randomized heap shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/svagc_collector.h"
#include "gc/forwarding.h"
#include "gc/mark.h"
#include "gc/plan_optimizer.h"
#include "runtime/heap_verifier.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "verify/differential_oracle.h"

namespace svagc {
namespace {

using svagc::testing::ChecksumReachable;
using svagc::testing::SimBundle;

gc::PlanOptimizerConfig CoalesceOnly() {
  gc::PlanOptimizerConfig config;
  config.coalesce_runs = true;
  config.align_runs = false;
  return config;
}

gc::PlanOptimizerConfig FullOptimizer() {
  gc::PlanOptimizerConfig config;
  config.coalesce_runs = true;
  config.align_runs = true;
  config.dense_prefix = true;
  config.adaptive_threshold = true;
  return config;
}

// --- the analytic threshold ------------------------------------------------

TEST(PlanOptimizerThreshold, MatchesBruteForceCrossover) {
  const sim::CostProfile& cost = sim::ProfileXeonGold6130();
  // Brute force: smallest page count where one disjoint swap call models
  // cheaper than copying the same pages, per CopyCyclesPerByte's rate choice.
  auto brute = [&](std::uint64_t moved_bytes) -> std::uint64_t {
    const double per_page_swap = 2 * cost.pagetable_access +
                                 2 * cost.pte_access + 2 * cost.pte_lock_pair +
                                 cost.pte_update;
    const double fixed = cost.syscall_entry + cost.tlb_flush_local;
    const double rate = cost.CopyCyclesPerByte(moved_bytes);
    for (std::uint64_t pages = 1; pages <= 64; ++pages) {
      const double swap = fixed + per_page_swap * static_cast<double>(pages);
      const double copy =
          rate * static_cast<double>(pages) * sim::kPageSize;
      if (swap < copy) return pages;
    }
    return 64;
  };
  // Cache-resident rate (first cycle / small moved totals) and DRAM rate.
  EXPECT_EQ(gc::ChooseSwapThresholdPages(cost, 0), brute(0));
  EXPECT_EQ(gc::ChooseSwapThresholdPages(cost, cost.llc_bytes * 2),
            brute(cost.llc_bytes * 2));
  // The DRAM crossover is never above the cached one (copying got dearer).
  EXPECT_LE(gc::ChooseSwapThresholdPages(cost, cost.llc_bytes * 2),
            gc::ChooseSwapThresholdPages(cost, 0));
  // Known values for the paper's calibrated testbed profile.
  EXPECT_EQ(gc::ChooseSwapThresholdPages(cost, 0), 11u);
  EXPECT_EQ(gc::ChooseSwapThresholdPages(cost, cost.llc_bytes * 2), 4u);
}

// --- plan-level exactness --------------------------------------------------

// Phase I + II on a randomized heap, returning the serial reference plan.
class PlanFixture : public ::testing::Test {
 protected:
  void Build(unsigned count, double root_fraction, std::uint64_t seed,
             double large_fraction = 1.0 / 8) {
    rt::JvmConfig config;
    config.heap.capacity = 16 << 20;
    jvm_ = std::make_unique<rt::Jvm>(sim_.machine, sim_.phys, sim_.kernel,
                                     config);
    jvm_->set_collector(
        std::make_unique<gc::ParallelLisp2>(sim_.machine, 1, 0));
    Rng rng(seed);
    const auto table = jvm_->New(2, count, 0);
    const auto handle = jvm_->roots().Add(table);
    for (unsigned i = 0; i < count; ++i) {
      const bool large = rng.NextDouble() < large_fraction;
      const std::uint64_t data =
          large ? 10 * sim::kPageSize + rng.NextBelow(3 * sim::kPageSize)
                : 8 * (1 + rng.NextBelow(64));
      const rt::vaddr_t obj = jvm_->New(1, 0, data);
      if (rng.NextDouble() < root_fraction) {
        jvm_->View(jvm_->roots().Get(handle)).set_ref(i, obj);
      }
    }
    jvm_->RetireAllTlabs();
  }

  gc::ForwardingResult Forward() {
    bitmap_ = std::make_unique<gc::MarkBitmap>(jvm_->heap());
    bitmap_->Clear();
    collector_ = std::make_unique<gc::ParallelLisp2>(sim_.machine, 1, 0);
    gc::MarkSerial(*jvm_, *bitmap_, collector_->worker_ctx(0),
                   collector_->costs());
    return gc::ComputeForwarding(*jvm_, *bitmap_, collector_->worker_ctx(0),
                                 collector_->costs(), gc::kDefaultRegionBytes);
  }

  gc::PlanOptimizerStats Optimize(gc::ForwardingResult& fwd,
                                  const gc::PlanOptimizerConfig& config,
                                  std::uint64_t threshold_pages = 10) {
    return gc::OptimizePlan(*jvm_, fwd, config, threshold_pages,
                            collector_->worker_ctx(0), collector_->costs(),
                            sim_.machine.cost(), /*evacuate_all_live=*/false);
  }

  SimBundle sim_{4, 256ULL << 20};
  std::unique_ptr<rt::Jvm> jvm_;
  std::unique_ptr<gc::MarkBitmap> bitmap_;
  std::unique_ptr<gc::ParallelLisp2> collector_;
};

// With only large objects live, nothing coalesces and the layout replay must
// reproduce the serial reference plan field for field.
TEST_F(PlanFixture, ReplayOnLargeOnlyHeapReproducesSerialPlan) {
  Build(120, 0.5, 11, /*large_fraction=*/1.0);
  const gc::ForwardingResult baseline = Forward();
  std::vector<rt::vaddr_t> want;
  for (const rt::vaddr_t addr : baseline.live) {
    want.push_back(jvm_->View(addr).forwarding());
  }
  gc::ForwardingResult optimized = Forward();  // fresh slots, same heap
  const gc::PlanOptimizerStats stats = Optimize(optimized, CoalesceOnly());

  EXPECT_EQ(stats.runs_coalesced, 0u);
  EXPECT_EQ(optimized.plan.region_moves, baseline.plan.region_moves);
  EXPECT_EQ(optimized.plan.region_dep, baseline.plan.region_dep);
  EXPECT_EQ(optimized.plan.fillers, baseline.plan.fillers);
  EXPECT_EQ(optimized.plan.new_top, baseline.plan.new_top);
  EXPECT_EQ(optimized.plan.moved_objects(), baseline.plan.moved_objects());
  for (std::size_t i = 0; i < baseline.live.size(); ++i) {
    EXPECT_EQ(jvm_->View(baseline.live[i]).forwarding(), want[i]);
  }
}

// Coalescing without alignment packs objects at exactly the unoptimized
// destinations: every forwarding address, the new top, and the per-object
// move coverage are preserved — only the batching changes.
TEST_F(PlanFixture, CoalesceWithoutAlignKeepsForwardingAddresses) {
  for (const std::uint64_t seed : {3u, 7u, 21u}) {
    Build(400, 0.5, seed);
    gc::ForwardingResult baseline = Forward();
    std::vector<rt::vaddr_t> want;
    want.reserve(baseline.live.size());
    for (const rt::vaddr_t addr : baseline.live) {
      want.push_back(jvm_->View(addr).forwarding());
    }

    gc::ForwardingResult optimized = Forward();
    const gc::PlanOptimizerStats stats = Optimize(optimized, CoalesceOnly());

    ASSERT_EQ(optimized.live, baseline.live);
    for (std::size_t i = 0; i < baseline.live.size(); ++i) {
      EXPECT_EQ(jvm_->View(baseline.live[i]).forwarding(), want[i])
          << "seed " << seed << " object " << i;
    }
    EXPECT_EQ(optimized.plan.new_top, baseline.plan.new_top);
    EXPECT_EQ(optimized.plan.moved_objects(), baseline.plan.moved_objects());
    EXPECT_GT(stats.runs_coalesced, 0u) << "seed " << seed;

    // Counter identity: every emitted move accounts for its member objects,
    // and the run-length histogram sums back to the coalesced-object total.
    std::uint64_t covered = 0;
    for (const auto& moves : optimized.plan.region_moves) {
      for (const gc::Move& move : moves) {
        EXPECT_LE(move.dst, move.src);
        EXPECT_GE(move.objects, 1u);
        if (!move.run) {
          EXPECT_EQ(move.objects, 1u);
        }
        covered += move.objects;
      }
    }
    EXPECT_EQ(covered, optimized.plan.moved_objects());
    std::uint64_t hist = 0;
    for (const std::uint32_t len : stats.run_lengths) hist += len;
    EXPECT_EQ(hist, stats.objects_in_runs);
    EXPECT_EQ(stats.run_lengths.size(), stats.runs_coalesced);
  }
}

// The full optimizer's plan still tiles the destination space perfectly:
// forwarded objects plus fillers cover [base, new_top) with no gap and no
// overlap, and moves stay ascending in both src and dst per region.
TEST_F(PlanFixture, OptimizedPlanTilesDestinationExactly) {
  for (const std::uint64_t seed : {5u, 13u}) {
    Build(400, 0.5, seed);
    gc::ForwardingResult fwd = Forward();
    Optimize(fwd, FullOptimizer(),
             gc::ChooseSwapThresholdPages(sim_.machine.cost(), 0));

    std::vector<std::pair<rt::vaddr_t, std::uint64_t>> spans;
    for (const rt::vaddr_t addr : fwd.live) {
      rt::ObjectView view = jvm_->View(addr);
      spans.emplace_back(view.forwarding(), view.size());
    }
    for (const auto& filler : fwd.plan.fillers) spans.push_back(filler);
    std::sort(spans.begin(), spans.end());
    rt::vaddr_t cursor = jvm_->heap().base();
    for (const auto& [start, size] : spans) {
      EXPECT_EQ(start, cursor) << "seed " << seed;
      cursor = start + size;
    }
    EXPECT_EQ(cursor, fwd.plan.new_top) << "seed " << seed;

    for (const auto& moves : fwd.plan.region_moves) {
      for (std::size_t m = 1; m < moves.size(); ++m) {
        EXPECT_GT(moves[m].src, moves[m - 1].src);
        EXPECT_GT(moves[m].dst, moves[m - 1].dst);
      }
    }
  }
}

// --- SwapVA page conservation through the run-aware mover -------------------

// A hand-built heap: a page-spanning garbage block followed by a long span
// of adjacent small survivors. With coalescing + alignment the span becomes
// one run whose interior pages are swapped; every byte of the run must move
// exactly once (swapped interior + memmoved ragged head/tail == run length),
// and the swapped page count must equal the interior derived from the plan.
TEST(PlanOptimizerSwapVaConservation, RunInteriorPagesSwapExactlyOnce) {
  SimBundle sim(4, 256ULL << 20);
  rt::JvmConfig jvm_config;
  jvm_config.heap.capacity = 8 << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, jvm_config);
  auto owned = std::make_unique<core::SvagcCollector>(sim.machine, 2, 0);
  core::SvagcCollector* svagc = owned.get();
  gc::PlanOptimizerConfig optimizer;
  optimizer.coalesce_runs = true;
  svagc->set_plan_optimizer(optimizer);
  jvm.set_collector(std::move(owned));

  // ~30 pages of small garbage first (small so it stays in the TLAB stream,
  // at addresses below the survivors), then 256 rooted small objects
  // allocated back to back — TLAB bump allocation keeps them adjacent.
  for (int i = 0; i < 30; ++i) jvm.New(1, 0, sim::kPageSize);  // dies
  const auto table = jvm.roots().Add(jvm.New(2, 256, 0));
  std::uint64_t span_bytes = 0;
  for (unsigned i = 0; i < 256; ++i) {
    const std::uint64_t data = 8 * (1 + (i % 64));
    const rt::vaddr_t obj = jvm.New(1, 0, data);
    jvm.View(jvm.roots().Get(table)).set_ref(i, obj);
    span_bytes += jvm.View(obj).size();
  }
  const std::uint64_t checksum = ChecksumReachable(jvm);
  jvm.collector().Collect(jvm);

  const gc::PlanOptimizerStats& plan = svagc->last_plan_stats();
  EXPECT_GE(plan.runs_coalesced, 1u);
  EXPECT_GE(plan.objects_in_runs, 256u);

  const telemetry::MetricsRegistry& metrics = svagc->metrics();
  const std::uint64_t bytes_swapped = metrics.CounterValue("gc.bytes_swapped");
  const std::uint64_t bytes_copied = metrics.CounterValue("gc.bytes_copied");
  // Interior swaps happened (no member object is SwapVA-sized on its own)…
  EXPECT_GT(bytes_swapped, 0u);
  EXPECT_GT(metrics.CounterValue("gc.objects_swapped"), 0u);
  EXPECT_EQ(metrics.CounterValue("gc.swap_faults_recovered"), 0u);
  // …and conservation holds: runs are whole live objects sliding rigidly, so
  // swapped + copied bytes equal the live bytes moved exactly — the swap
  // path never page-rounds past a run (unlike lone large objects) and no
  // byte is both swapped and copied. The root table slides in front of the
  // span, memmoved.
  const std::uint64_t table_bytes =
      jvm.View(jvm.roots().Get(table)).size();
  EXPECT_EQ(bytes_swapped + bytes_copied, span_bytes + table_bytes);
  // The swapped total is exactly the run interior the plan promised.
  EXPECT_EQ(bytes_swapped % sim::kPageSize, 0u);

  EXPECT_EQ(ChecksumReachable(jvm), checksum);
  const rt::VerifyResult verify = rt::VerifyHeap(jvm);
  EXPECT_TRUE(verify.ok) << verify.error;
}

// --- optimized vs unoptimized digest identity -------------------------------

// Two identically-seeded JVMs, one collected with the optimizer and one
// without, must agree. Coalescing without alignment changes no addresses, so
// the full post-GC digests (addresses included) match; the aligned/dense
// configurations shift addresses by design, so the comparison drops to the
// address-independent reachable checksum plus the heap verifier.
class PlanOptimizerDifferential
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static std::unique_ptr<rt::Jvm> BuildJvm(SimBundle& sim,
                                           std::uint64_t seed) {
    rt::JvmConfig config;
    config.heap.capacity = 16 << 20;
    auto jvm = std::make_unique<rt::Jvm>(sim.machine, sim.phys, sim.kernel,
                                         config);
    Rng rng(seed);
    const auto table = jvm->New(2, 500, 0);
    const auto handle = jvm->roots().Add(table);
    for (unsigned i = 0; i < 500; ++i) {
      const bool large = rng.NextBelow(10) == 0;
      const std::uint64_t data =
          large ? 10 * sim::kPageSize + rng.NextBelow(2 * sim::kPageSize)
                : 8 * (1 + rng.NextBelow(48));
      const rt::vaddr_t obj = jvm->New(1, 0, data);
      if (rng.NextBelow(2) == 0) {
        jvm->View(jvm->roots().Get(handle)).set_ref(i, obj);
      }
    }
    jvm->RetireAllTlabs();
    return jvm;
  }

  static void Collect(rt::Jvm& jvm, sim::Machine& machine,
                      const gc::PlanOptimizerConfig& optimizer) {
    auto collector = std::make_unique<core::SvagcCollector>(machine, 2, 0);
    collector->set_plan_optimizer(optimizer);
    jvm.set_collector(std::move(collector));
    jvm.collector().Collect(jvm);
  }
};

TEST_P(PlanOptimizerDifferential, CoalesceOnlyIsDigestIdentical) {
  const std::uint64_t seed = GetParam();
  SimBundle sim_a(4, 256ULL << 20), sim_b(4, 256ULL << 20);
  auto plain = BuildJvm(sim_a, seed);
  auto optimized = BuildJvm(sim_b, seed);

  Collect(*plain, sim_a.machine, {});
  Collect(*optimized, sim_b.machine, CoalesceOnly());

  // Bit-level layout identity: same addresses, same objects, same fillers.
  const verify::HeapDigest da = verify::DigestHeap(*plain);
  const verify::HeapDigest db = verify::DigestHeap(*optimized);
  ASSERT_TRUE(da.valid) << da.error;
  ASSERT_TRUE(db.valid) << db.error;
  EXPECT_EQ(verify::CompareDigests(da, db), "");
}

TEST_P(PlanOptimizerDifferential, FullOptimizerPreservesReachableGraph) {
  const std::uint64_t seed = GetParam();
  SimBundle sim_a(4, 256ULL << 20), sim_b(4, 256ULL << 20);
  auto plain = BuildJvm(sim_a, seed);
  auto optimized = BuildJvm(sim_b, seed);
  const std::uint64_t checksum = ChecksumReachable(*plain);
  ASSERT_EQ(ChecksumReachable(*optimized), checksum);

  Collect(*plain, sim_a.machine, {});
  Collect(*optimized, sim_b.machine, FullOptimizer());

  EXPECT_EQ(ChecksumReachable(*plain), checksum);
  EXPECT_EQ(ChecksumReachable(*optimized), checksum);
  const rt::VerifyResult verify = rt::VerifyHeap(*optimized);
  EXPECT_TRUE(verify.ok) << verify.error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanOptimizerDifferential,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- oracle sweeps with the optimizer on ------------------------------------

// The SwapVA-vs-memmove differential oracle, with the optimizer applied to
// both arms: semantic digests and heap invariants must agree even when
// coalesced run interiors ride the swap path. The workload is a std::string,
// not a const char*, so the printed parameter (and with it the discovered
// ctest name) carries no process address.
class PlanOptimizerOracleSweep
    : public ::testing::TestWithParam<std::pair<std::string, bool>> {};

TEST_P(PlanOptimizerOracleSweep, SwapVaAndMemmoveArmsAgreeWithCoalescing) {
  const auto& [workload, full] = GetParam();
  verify::OracleConfig config;
  config.workload = workload;
  config.plan_optimizer = full ? FullOptimizer() : CoalesceOnly();
  const verify::OracleResult result = verify::RunDifferentialOracle(config);

  EXPECT_TRUE(result.match) << result.divergence;
  EXPECT_GT(result.objects, 0u);
  EXPECT_TRUE(result.invariants_swap.ok) << result.invariants_swap.Describe();
  EXPECT_TRUE(result.invariants_copy.ok) << result.invariants_copy.Describe();
  // The per-object move prediction is declared invalid under the optimizer
  // (runs dispatch at run granularity) — make sure the oracle says so
  // instead of producing a bogus comparison.
  EXPECT_FALSE(result.prediction_valid);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PlanOptimizerOracleSweep,
    ::testing::Values(std::pair<std::string, bool>{"bisort", false},
                      std::pair<std::string, bool>{"bisort", true},
                      std::pair<std::string, bool>{"lrucache", false},
                      std::pair<std::string, bool>{"lrucache", true}),
    [](const ::testing::TestParamInfo<std::pair<std::string, bool>>& info) {
      std::string name = info.param.first;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + (info.param.second ? "_Full" : "_CoalesceOnly");
    });

// --- the parallel schedulers execute coalesced plans -------------------------

// Work-stealing compaction over optimizer-rewritten plans, across several
// cycles of a real workload: the scheduler's dependency tracking must stay
// correct when runs write byte-precise extents. (Named for the tsan preset,
// which stresses the cross-worker region handoff.)
TEST(CompactionSchedulerCoalescedRuns, WorkStealingExecutesOptimizedPlans) {
  SimBundle sim(8, 256ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 16 << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  auto owned = std::make_unique<core::SvagcCollector>(sim.machine, 8, 0);
  owned->set_plan_optimizer(FullOptimizer());
  jvm.set_collector(std::move(owned));

  Rng rng(99);
  const auto table = jvm.roots().Add(jvm.New(2, 300, 0));
  std::uint64_t checksum = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (unsigned i = 0; i < 300; ++i) {
      const std::uint64_t data =
          rng.NextBelow(12) == 0
              ? 10 * sim::kPageSize + rng.NextBelow(2 * sim::kPageSize)
              : 8 * (1 + rng.NextBelow(48));
      const rt::vaddr_t obj = jvm.New(1, 0, data);
      // Half survive into the next cycle, half are garbage by then.
      if (i % 2 == 0) jvm.View(jvm.roots().Get(table)).set_ref(i, obj);
    }
    checksum = ChecksumReachable(jvm);
    jvm.collector().Collect(jvm);
    ASSERT_EQ(ChecksumReachable(jvm), checksum) << "cycle " << cycle;
    const rt::VerifyResult verify = rt::VerifyHeap(jvm);
    ASSERT_TRUE(verify.ok) << "cycle " << cycle << ": " << verify.error;
  }
}

}  // namespace
}  // namespace svagc
