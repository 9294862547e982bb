// Differential-oracle tests: the same workload + GC cycle, replayed twice
// from one snapshotted heap — once with SwapVA page moves, once memmove-only
// — must produce identical post-GC object graphs, contents, and root
// targets. A deliberate drop-move toggle proves the oracle has teeth.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "runtime/jvm.h"
#include "simkernel/config.h"
#include "telemetry/metrics.h"
#include "verify/differential_oracle.h"
#include "verify/graph_digest.h"
#include "workloads/runner.h"

namespace svagc {
namespace {

enum class HeapShape { kSmallOnly, kLargeHeavy };

verify::OracleConfig MakeConfig(const std::string& workload, HeapShape shape) {
  verify::OracleConfig config;
  config.workload = workload;
  if (shape == HeapShape::kSmallOnly) {
    // Threshold no object can reach: every move degrades to memmove in both
    // arms, pinning down the oracle's baseline behaviour.
    config.swap_threshold_pages = 1ULL << 24;
    config.large_object_salt = 0;
  } else {
    config.swap_threshold_pages = 10;
    config.large_object_salt = 3;
  }
  return config;
}

// The workload is held as std::string, not const char*: gtest prints a
// const char* tuple element as its address, which would put an ASLR-dependent
// pointer into every discovered ctest name.
class DifferentialOracleSweep
    : public ::testing::TestWithParam<std::tuple<std::string, HeapShape>> {};

TEST_P(DifferentialOracleSweep, SwapVaAndMemmoveArmsAgree) {
  const auto& [workload, shape] = GetParam();
  const verify::OracleConfig config = MakeConfig(workload, shape);
  const verify::OracleResult result = verify::RunDifferentialOracle(config);

  EXPECT_TRUE(result.match) << result.divergence;
  EXPECT_GT(result.objects, 0u);
  EXPECT_GT(result.live_bytes, 0u);
  EXPECT_TRUE(result.invariants_swap.ok) << result.invariants_swap.Describe();
  EXPECT_TRUE(result.invariants_copy.ok) << result.invariants_copy.Describe();
  if (shape == HeapShape::kLargeHeavy) {
    // The salted large objects guarantee the swap arm actually exercised
    // SwapVA — otherwise the two arms are trivially identical.
    EXPECT_GT(result.swapped_bytes, 0u) << workload;
  } else {
    EXPECT_EQ(result.swapped_bytes, 0u) << workload;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DifferentialOracleSweep,
    ::testing::Combine(::testing::Values("compress", "sparse.large", "bisort",
                                         "lrucache"),
                       ::testing::Values(HeapShape::kSmallOnly,
                                         HeapShape::kLargeHeavy)),
    [](const ::testing::TestParamInfo<DifferentialOracleSweep::ParamType>&
           info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      name += std::get<1>(info.param) == HeapShape::kSmallOnly ? "_SmallOnly"
                                                               : "_LargeHeavy";
      return name;
    });

// Telemetry cross-check: for one GC cycle under the oracle, the swapped and
// memmoved byte totals in the collector's MetricsRegistry (their only tally)
// must equal a prediction replayed purely from the pre/post heap snapshot
// diff (BFS liveness + sliding-order pairing + Algorithm 3's dispatch test).
// Any drift between the registry and the heap's actual movement is a
// telemetry lie.
class MetricsAgreementSweep : public ::testing::TestWithParam<HeapShape> {};

TEST_P(MetricsAgreementSweep, MetricsMatchHeapSnapshotDiff) {
  const verify::OracleConfig config = MakeConfig("lrucache", GetParam());
  const verify::OracleResult result = verify::RunDifferentialOracle(config);
  ASSERT_TRUE(result.match) << result.divergence;

  ASSERT_TRUE(result.prediction_valid);
  EXPECT_EQ(result.predicted_swapped_bytes, result.swapped_bytes);
  EXPECT_EQ(result.predicted_memmoved_bytes, result.memmoved_bytes);
  if (GetParam() == HeapShape::kLargeHeavy) {
    EXPECT_GT(result.predicted_swapped_bytes, 0u);
  } else {
    EXPECT_EQ(result.predicted_swapped_bytes, 0u);
    EXPECT_GT(result.predicted_memmoved_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MetricsAgreementSweep,
                         ::testing::Values(HeapShape::kSmallOnly,
                                           HeapShape::kLargeHeavy),
                         [](const ::testing::TestParamInfo<HeapShape>& info) {
                           return info.param == HeapShape::kSmallOnly
                                      ? "SmallOnly"
                                      : "LargeHeavy";
                         });

// Huge-object sweep: the 2 MiB alignment class + kernel PMD swapping must be
// semantically invisible — swap arm (PMD exchanges, splits, huge rotations)
// vs memmove arm, same digests. Shapes cover the three kernel paths:
// aligned (pure PMD exchange), unaligned (PMD + split + PTE tail), and
// overlapping (PMD-granule rotation, spacer smaller than the objects).
enum class HugeShape { kAligned, kUnaligned, kOverlapping };

class HugeDifferentialSweep : public ::testing::TestWithParam<HugeShape> {};

TEST_P(HugeDifferentialSweep, HugeSwapArmsAgree) {
  verify::OracleConfig config;
  config.workload = "lrucache";
  config.swap_threshold_pages = 10;
  config.huge_threshold_pages = 256;  // 1 MiB: all salt objects qualify
  config.large_object_salt = 3;
  switch (GetParam()) {
    case HugeShape::kAligned:
      config.salt_object_bytes = sim::kHugePageSize;  // exactly one unit
      break;
    case HugeShape::kUnaligned:
      // One unit plus a 24-page tail: PMD fast path + split + PTE tail.
      config.salt_object_bytes = sim::kHugePageSize + 24 * sim::kPageSize;
      break;
    case HugeShape::kOverlapping:
      // 4 MiB objects sliding down over a 2 MiB spacer: delta smaller than
      // the extent, forcing the overlap rotation at PMD granularity.
      config.salt_object_bytes = 2 * sim::kHugePageSize;
      config.salt_spacer_bytes = sim::kHugePageSize;
      break;
  }
  const verify::OracleResult result = verify::RunDifferentialOracle(config);
  EXPECT_TRUE(result.match) << result.divergence;
  EXPECT_GT(result.swapped_bytes, 0u);
  EXPECT_TRUE(result.invariants_swap.ok) << result.invariants_swap.Describe();
  EXPECT_TRUE(result.invariants_copy.ok) << result.invariants_copy.Describe();
  // The move-byte prediction replays Algorithm 3 at page granularity; PMD
  // swapping must not change what is booked, only what it costs.
  ASSERT_TRUE(result.prediction_valid);
  EXPECT_EQ(result.predicted_swapped_bytes, result.swapped_bytes);
  EXPECT_EQ(result.predicted_memmoved_bytes, result.memmoved_bytes);
}

INSTANTIATE_TEST_SUITE_P(Shapes, HugeDifferentialSweep,
                         ::testing::Values(HugeShape::kAligned,
                                           HugeShape::kUnaligned,
                                           HugeShape::kOverlapping),
                         [](const ::testing::TestParamInfo<HugeShape>& info) {
                           switch (info.param) {
                             case HugeShape::kAligned:
                               return "Aligned";
                             case HugeShape::kUnaligned:
                               return "Unaligned";
                             case HugeShape::kOverlapping:
                               return "Overlapping";
                           }
                           return "?";
                         });

// Sensitivity check: silently dropping one displaced page move in the swap
// arm must make the digests diverge. If this ever passes with match == true,
// the oracle has gone blind.
TEST(DifferentialOracle, DetectsDroppedMove) {
  verify::OracleConfig config = MakeConfig("lrucache", HeapShape::kLargeHeavy);
  config.drop_move = true;
  config.drop_move_index = 1;
  const verify::OracleResult result = verify::RunDifferentialOracle(config);
  EXPECT_GE(result.moves_dropped, 1u);
  EXPECT_FALSE(result.match);
  EXPECT_FALSE(result.divergence.empty());
}

// The drop toggle itself is inert at index infinity: same config, but no
// move is ever dropped, so the arms must agree again (guards against the
// DropMoveCollector subclass perturbing behaviour when not firing).
TEST(DifferentialOracle, DropToggleIsInertWhenIndexNeverReached) {
  verify::OracleConfig config = MakeConfig("lrucache", HeapShape::kLargeHeavy);
  config.drop_move = true;
  config.drop_move_index = 1ULL << 62;
  const verify::OracleResult result = verify::RunDifferentialOracle(config);
  EXPECT_EQ(result.moves_dropped, 0u);
  EXPECT_TRUE(result.match) << result.divergence;
}

// DigestReachableGraph as it was before it read payloads page chunk by page
// chunk: one ObjectView::data_word per payload word. Kept as the reference
// the chunked read must match. Counts the reachable payloads that cross a
// page boundary into `crossing`.
std::uint64_t WordByWordGraphDigest(rt::Jvm& jvm, std::uint64_t* crossing) {
  sim::AddressSpace& as = jvm.address_space();
  std::unordered_map<rt::vaddr_t, std::uint64_t> id;
  std::vector<rt::vaddr_t> order;
  std::deque<rt::vaddr_t> queue;
  const auto visit = [&](rt::vaddr_t addr) -> std::uint64_t {
    if (addr == 0) return 0;
    const auto [it, inserted] = id.emplace(addr, order.size() + 1);
    if (inserted) {
      order.push_back(addr);
      queue.push_back(addr);
    }
    return it->second;
  };
  verify::GraphDigestBuilder builder;
  std::vector<std::uint64_t> root_ids;
  jvm.roots().ForEachSlot(
      [&](rt::vaddr_t& slot) { root_ids.push_back(visit(slot)); });
  for (const std::uint64_t root : root_ids) builder.AddRoot(root);
  while (!queue.empty()) {
    rt::ObjectView view(as, queue.front());
    queue.pop_front();
    for (std::uint32_t i = 0; i < view.num_refs(); ++i) visit(view.ref(i));
  }
  *crossing = 0;
  for (const rt::vaddr_t addr : order) {
    rt::ObjectView view(as, addr);
    std::vector<std::uint64_t> ref_ids;
    for (std::uint32_t i = 0; i < view.num_refs(); ++i) {
      const rt::vaddr_t target = view.ref(i);
      ref_ids.push_back(target == 0 ? 0 : id.at(target));
    }
    std::vector<std::uint64_t> payload;
    for (std::uint64_t w = 0; w < view.data_words(); ++w) {
      payload.push_back(view.data_word(w));
    }
    if (!payload.empty() && (view.data_base() >> sim::kPageShift) !=
                                ((addr + view.size() - 1) >> sim::kPageShift)) {
      ++*crossing;
    }
    builder.AddNode(view.type_id(), view.num_refs(), ref_ids, payload);
  }
  return builder.digest();
}

class GraphDigestSweep : public ::testing::TestWithParam<std::string> {};

// The page-chunk payload read folds the same words in the same order as the
// word-by-word reference, on real workload heaps whose payloads cross page
// boundaries. Distinct words at both ends of every payload and on both
// sides of every page boundary make a dropped or shifted chunk change the
// digest, even on lrucache, which never writes its payloads. A far tier
// scatters the frames (and puts some pages in far slots), so a read that
// runs past a page's end lands on the wrong bytes.
TEST_P(GraphDigestSweep, PageChunkReadsMatchWordByWordReference) {
  workloads::RunConfig config;
  config.workload = GetParam();
  config.heap_factor = 2.0;
  config.gc_threads = 2;
  config.machine_cores = 4;
  config.far_residency = 0.7;
  sim::Machine machine(config.machine_cores, sim::ProfileXeonGold6130());
  sim::Kernel kernel(machine);
  const std::uint64_t heap_bytes = static_cast<std::uint64_t>(
      static_cast<double>(
          workloads::MakeWorkload(config.workload)->info().min_heap_bytes) *
      config.heap_factor);
  sim::PhysicalMemory phys(heap_bytes + (8ULL << 20));
  workloads::TenantBundle bundle = workloads::MakeTenant(
      config, machine, phys, kernel, /*tenant=*/0, /*mutator_core=*/0,
      /*gc_first_core=*/0, /*heap_base=*/1ULL << 32);
  rt::Jvm& jvm = *bundle.jvm;
  bundle.workload->Setup(jvm);
  for (int i = 0; i < 5; ++i) bundle.workload->Iterate(jvm);

  jvm.MakeTlabsParsable();
  sim::AddressSpace& as = jvm.address_space();
  jvm.heap().ForEachObject([&](rt::vaddr_t addr, std::uint64_t size) {
    const rt::vaddr_t begin = rt::ObjectView(as, addr).data_base();
    const rt::vaddr_t end = addr + size;
    for (rt::vaddr_t w = begin; w < end; w += 8) {
      if (w == begin || w + 8 == end || w % sim::kPageSize == 0 ||
          (w + 8) % sim::kPageSize == 0) {
        as.WriteWord(w, w * 0x9E3779B97F4A7C15ULL);
      }
    }
  });
  std::uint64_t crossing = 0;
  const std::uint64_t reference = WordByWordGraphDigest(jvm, &crossing);
  EXPECT_GT(crossing, 0u);
  EXPECT_EQ(verify::DigestReachableGraph(jvm), reference);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GraphDigestSweep, ::testing::Values("lrucache", "pagerank"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace svagc
