// Differential-oracle tests: the same workload + GC cycle, replayed twice
// from one snapshotted heap — once with SwapVA page moves, once memmove-only
// — must produce identical post-GC object graphs, contents, and root
// targets. A deliberate drop-move toggle proves the oracle has teeth.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "simkernel/config.h"
#include "telemetry/metrics.h"
#include "verify/differential_oracle.h"

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

}  // namespace
}  // namespace svagc
