// Cross-collector integration: the collector must be semantically invisible
// to the application. Running the same deterministic workload under every
// collector must produce the identical reachable-graph checksum, because
// workloads never depend on object addresses — only GC timing and layout
// differ. This is the strongest end-to-end correctness statement the
// harness can make, and it exercises allocation, TLABs, all four phases,
// SwapVA (with every optimization), and the workload kernels together.
#include <gtest/gtest.h>

#include <map>

#include "gc/lisp2.h"
#include "gc/parallel_gc.h"
#include "gc/shenandoah_gc.h"
#include "tests/test_util.h"
#include "workloads/runner.h"

namespace svagc::workloads {
namespace {

using svagc::testing::ChecksumReachable;
using svagc::testing::SimBundle;

// Builds a Jvm with the collector (and the matching large-object alignment
// policy — layout differs across collectors, semantics must not), runs the
// workload, and returns the structural checksum of the final live graph.
std::uint64_t RunAndHash(const std::string& workload_name, CollectorKind kind) {
  SimBundle sim(32, 512ULL << 20);
  const auto workload = MakeWorkload(workload_name);
  const bool aligned = kind == CollectorKind::kSvagc ||
                       kind == CollectorKind::kSvagcNoSwap ||
                       kind == CollectorKind::kSvagcNaiveTlb;
  rt::JvmConfig config;
  config.heap.capacity = AlignUp(
      static_cast<std::uint64_t>(workload->info().min_heap_bytes * 1.2),
      sim::kPageSize);
  config.heap.page_align_large = aligned;
  config.logical_threads = workload->info().logical_threads;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  switch (kind) {
    case CollectorKind::kSvagc:
      jvm.set_collector(
          std::make_unique<core::SvagcCollector>(sim.machine, 8, 0));
      break;
    case CollectorKind::kSvagcNoSwap: {
      core::SvagcConfig c;
      c.move.use_swapva = false;
      jvm.set_collector(
          std::make_unique<core::SvagcCollector>(sim.machine, 8, 0, c));
      break;
    }
    case CollectorKind::kSvagcNaiveTlb: {
      core::SvagcConfig c;
      c.pinned_compaction = false;
      jvm.set_collector(
          std::make_unique<core::SvagcCollector>(sim.machine, 8, 0, c));
      break;
    }
    case CollectorKind::kParallelGc:
      jvm.set_collector(
          std::make_unique<gc::ParallelGcLike>(sim.machine, 8, 0));
      break;
    case CollectorKind::kShenandoah:
      jvm.set_collector(
          std::make_unique<gc::ShenandoahLike>(sim.machine, 8, 0));
      break;
    case CollectorKind::kSerialLisp2:
      jvm.set_collector(std::make_unique<gc::SerialLisp2>(sim.machine, 0));
      break;
    case CollectorKind::kConcurrentSvagc:
      ADD_FAILURE() << "this sweep builds stop-the-world collectors only";
      return 0;
  }
  workload->Setup(jvm);
  for (unsigned i = 0; i < 15; ++i) workload->Iterate(jvm);
  EXPECT_GT(jvm.gc_count(), 0u) << workload_name;  // GCs actually happened
  return ChecksumReachable(jvm);
}

class CrossCollectorEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CrossCollectorEquivalence, IdenticalFinalStateUnderEveryCollector) {
  const std::string workload = GetParam();
  const std::uint64_t reference =
      RunAndHash(workload, CollectorKind::kSerialLisp2);
  for (const CollectorKind kind :
       {CollectorKind::kParallelGc, CollectorKind::kShenandoah,
        CollectorKind::kSvagc, CollectorKind::kSvagcNoSwap,
        CollectorKind::kSvagcNaiveTlb}) {
    EXPECT_EQ(RunAndHash(workload, kind), reference)
        << workload << " under " << CollectorKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, CrossCollectorEquivalence,
                         ::testing::Values("sparse.large/4", "fft.large/8",
                                           "sigverify", "compress",
                                           "bisort", "lrucache",
                                           "parallelsort", "lu.large"));

}  // namespace
}  // namespace svagc::workloads
