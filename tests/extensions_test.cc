// Tests for the paper-grounded extensions: the scrub-after-swap security
// option (§III-B), minor and concurrent evacuation through the production
// collectors (Table I rows 2-3), and physical write-traffic accounting (§VI,
// NVM wear).
#include <gtest/gtest.h>

#include "core/concurrent_svagc_collector.h"
#include "core/generational_collector.h"
#include "core/svagc_collector.h"
#include "simkernel/swapva.h"
#include "tests/test_util.h"

namespace svagc {
namespace {

using svagc::testing::ChecksumReachable;
using svagc::testing::SimBundle;

// --- scrub_source -------------------------------------------------------------

TEST(ScrubOption, MovePlusScrubLeavesNoPayloadBehind) {
  SimBundle sim(2);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, 64 * sim::kPageSize);
  const sim::vaddr_t src = base;
  const sim::vaddr_t dst = base + 32 * sim::kPageSize;
  constexpr std::uint64_t kPages = 4;
  for (std::uint64_t off = 0; off < kPages * sim::kPageSize; off += 8) {
    as.WriteWord(src + off, 0x5EC4E7 + off);
  }
  sim::SwapVaOptions opts;
  opts.scrub_source = true;
  sim::CpuContext ctx(sim.machine, 0);
  sim.kernel.SysSwapVa(as, ctx, src, dst, kPages, opts);
  // Data arrived at the destination...
  for (std::uint64_t off = 0; off < kPages * sim::kPageSize; off += 8) {
    ASSERT_EQ(as.ReadWord(dst + off), 0x5EC4E7 + off);
  }
  // ...and the relinquished source side holds zeros, not the frames' old
  // contents.
  for (std::uint64_t off = 0; off < kPages * sim::kPageSize; off += 8) {
    ASSERT_EQ(as.ReadWord(src + off), 0u);
  }
  // The scrub pays a zeroing charge.
  EXPECT_GT(ctx.account.ByKind(sim::CostKind::kAlloc), 0.0);
}

TEST(ScrubOption, OffByDefaultPreservesSwapSemantics) {
  SimBundle sim(2);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, 8 * sim::kPageSize);
  as.WriteWord(base, 111);
  as.WriteWord(base + 4 * sim::kPageSize, 222);
  sim::CpuContext ctx(sim.machine, 0);
  sim.kernel.SysSwapVa(as, ctx, base, base + 4 * sim::kPageSize, 1,
                       sim::SwapVaOptions{});
  EXPECT_EQ(as.ReadWord(base), 222u);  // true swap: both sides survive
  EXPECT_EQ(as.ReadWord(base + 4 * sim::kPageSize), 111u);
}

// --- minor / concurrent evacuation ---------------------------------------------

// Table I rows 2-3 through the production collectors: the generational
// front end's tenure batch (minor copying, aggregation applies) and
// concurrent SVAGC's evacuation windows (one independent call per object).
class EvacuationTest : public ::testing::Test {
 protected:
  EvacuationTest() {
    rt::JvmConfig config;
    config.heap.capacity = 8 << 20;
    jvm_ = std::make_unique<rt::Jvm>(sim_.machine, sim_.phys, sim_.kernel,
                                     config);
  }

  // Row 2: a nursery whose first minor collection tenures every survivor.
  core::GenerationalCollector& UseGenerational() {
    core::GenerationalConfig gen;
    gen.tenure_age = 1;
    auto inner = std::make_unique<core::SvagcCollector>(
        sim_.machine, /*gc_threads=*/1, /*first_core=*/0, core::SvagcConfig{});
    auto owned = std::make_unique<core::GenerationalCollector>(
        sim_.machine, /*first_core=*/0, std::move(inner), gen);
    core::GenerationalCollector& front = *owned;
    jvm_->set_collector(std::move(owned));
    jvm_->set_gc_barrier(&front);
    jvm_->set_alloc_front_end(&front);
    return front;
  }

  // Row 3: concurrent SVAGC built from a default config.
  core::ConcurrentSvagcCollector& UseConcurrent() {
    auto owned = std::make_unique<core::ConcurrentSvagcCollector>(
        sim_.machine, /*first_core=*/0);
    core::ConcurrentSvagcCollector& collector = *owned;
    jvm_->set_collector(std::move(owned));
    jvm_->set_gc_barrier(&collector);
    return collector;
  }

  // Six rooted survivors, alternating large (swappable) and small, each
  // payload stamped with its index.
  void MakeSurvivors() {
    for (int i = 0; i < 6; ++i) {
      const bool large = i % 2 == 0;
      const rt::vaddr_t obj =
          jvm_->New(1, 0, large ? 12 * sim::kPageSize : 2048);
      rt::ObjectView view = jvm_->View(obj);
      for (std::uint64_t w = 0; w < view.data_words(); w += 64) {
        view.set_data_word(w, 0xE0 + i);
      }
      jvm_->roots().Add(obj);
    }
  }

  // Data integrity at the survivors' current addresses.
  void ExpectSurvivorsIntact() {
    jvm_->roots().ForEachSlot([&](rt::vaddr_t& obj) {
      rt::ObjectView view = jvm_->View(obj);
      for (std::uint64_t w = 0; w < view.data_words(); w += 64) {
        EXPECT_EQ(view.data_word(w) & 0xF0, 0xE0u) << w;
      }
      if (view.size() >= 10 * sim::kPageSize) {
        EXPECT_TRUE(IsAligned(obj, sim::kPageSize));
      }
    });
  }

  static std::uint64_t Counter(const gc::CollectorBase& collector,
                               const char* name) {
    return collector.metrics().CounterValue(name);
  }

  SimBundle sim_{4, 128ULL << 20};
  std::unique_ptr<rt::Jvm> jvm_;
};

TEST_F(EvacuationTest, MinorBatchEvacuatesWithSwaps) {
  core::GenerationalCollector& front = UseGenerational();
  MakeSurvivors();
  ASSERT_TRUE(front.MinorCollect(*jvm_));
  EXPECT_EQ(front.last_minor().tenured, 6u);
  ExpectSurvivorsIntact();
  // Large survivors swapped, small ones copied (Table I row 2: SwapVA
  // applies to minor copying).
  EXPECT_EQ(Counter(front, "gc.objects_swapped"), 3u);
  EXPECT_EQ(Counter(front, "gc.objects_copied"), 3u);
  // Aggregation applies: far fewer syscalls than swapped objects would need
  // individually is allowed; at most one per flush boundary.
  EXPECT_LE(Counter(front, "gc.swap_calls"), 3u);
}

TEST_F(EvacuationTest, ConcurrentModeDisablesAggregationBenefit) {
  core::ConcurrentSvagcCollector& collector = UseConcurrent();
  jvm_->New(1, 0, 12 * sim::kPageSize);  // garbage: every survivor slides
  MakeSurvivors();
  collector.Collect(*jvm_);
  ExpectSurvivorsIntact();
  // One call per swapped object from a default config: Table I row 3 —
  // aggregation not applicable.
  EXPECT_EQ(Counter(collector, "gc.objects_swapped"), 3u);
  EXPECT_EQ(Counter(collector, "gc.swap_calls"),
            Counter(collector, "gc.objects_swapped"));
}

TEST_F(EvacuationTest, ModesProduceIdenticalData) {
  core::GenerationalCollector& front = UseGenerational();
  MakeSurvivors();
  const std::uint64_t before = ChecksumReachable(*jvm_);
  // The minor batch tenures the survivors...
  ASSERT_TRUE(front.MinorCollect(*jvm_));
  ExpectSurvivorsIntact();
  EXPECT_EQ(ChecksumReachable(*jvm_), before);
  // ...then a concurrent cycle slides them down over the dead nursery.
  core::ConcurrentSvagcCollector& collector = UseConcurrent();
  collector.Collect(*jvm_);
  EXPECT_EQ(Counter(collector, "gc.objects_swapped"), 3u);
  ExpectSurvivorsIntact();
  EXPECT_EQ(ChecksumReachable(*jvm_), before);
}

// --- NVM write accounting -------------------------------------------------------

TEST(NvmWear, SwapAvoidsPhysicalWrites) {
  SimBundle sim(2);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, 128 * sim::kPageSize);
  sim::CpuContext ctx(sim.machine, 0);

  const std::uint64_t before = sim.phys.bytes_written();
  sim.kernel.SysSwapVa(as, ctx, base, base + 64 * sim::kPageSize, 32,
                       sim::SwapVaOptions{});
  EXPECT_EQ(sim.phys.bytes_written(), before)
      << "swapping PTEs writes no data bytes";

  as.CopyBytes(ctx, base, base + 64 * sim::kPageSize, 32 * sim::kPageSize);
  EXPECT_EQ(sim.phys.bytes_written(), before + 32 * sim::kPageSize);
}

}  // namespace
}  // namespace svagc
