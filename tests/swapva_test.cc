// Tests for the SwapVA system call: Algorithm 1 (disjoint PTE exchange),
// Algorithm 2 (gcd-cycle overlap rotation), aggregation, the internal
// optimizations, and the TLB-coherence policies.
//
// The whole suite is the translation-backend conformance suite: every case
// runs once per backend (radix and hashed), asserting identical observable
// semantics; the few cost assertions that are backend-specific branch on the
// parameter.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "simkernel/swapva.h"
#include "support/rng.h"

namespace svagc::sim {
namespace {

constexpr vaddr_t kBase = 1ULL << 33;

std::string BackendName(
    const ::testing::TestParamInfo<TranslationBackend>& info) {
  return TranslationBackendName(info.param);
}

class SwapVaTest : public ::testing::TestWithParam<TranslationBackend> {
 protected:
  SwapVaTest() { as_.MapRange(kBase, kSpanPages * kPageSize); }

  static constexpr std::uint64_t kSpanPages = 512;

  // Writes a recognizable stamp into every word of page `index`.
  void StampPage(std::uint64_t index, std::uint64_t stamp) {
    for (std::uint64_t off = 0; off < kPageSize; off += 8) {
      as_.WriteWord(kBase + index * kPageSize + off, stamp ^ off);
    }
  }
  bool PageHasStamp(std::uint64_t index, std::uint64_t stamp) {
    for (std::uint64_t off = 0; off < kPageSize; off += 8) {
      if (as_.ReadWord(kBase + index * kPageSize + off) != (stamp ^ off)) {
        return false;
      }
    }
    return true;
  }
  vaddr_t PageAddr(std::uint64_t index) { return kBase + index * kPageSize; }

  Machine machine_{8, ProfileXeonGold6130(), GetParam()};
  Kernel kernel_{machine_};
  PhysicalMemory phys_{(kSpanPages + 64) * kPageSize};
  AddressSpace as_{machine_, phys_};
  CpuContext ctx_{machine_, 0};
  SwapVaOptions opts_{};
};

INSTANTIATE_TEST_SUITE_P(Backends, SwapVaTest,
                         ::testing::Values(TranslationBackend::kRadix,
                                           TranslationBackend::kHashed),
                         BackendName);

// --- disjoint swaps (Algorithm 1) -------------------------------------------

TEST_P(SwapVaTest, SwapsDisjointRanges) {
  for (std::uint64_t i = 0; i < 4; ++i) StampPage(i, 0x1000 + i);
  for (std::uint64_t i = 0; i < 4; ++i) StampPage(100 + i, 0x2000 + i);
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(100), 4, opts_);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(PageHasStamp(i, 0x2000 + i)) << i;
    EXPECT_TRUE(PageHasStamp(100 + i, 0x1000 + i)) << i;
  }
}

TEST_P(SwapVaTest, SwapIsItsOwnInverse) {
  StampPage(0, 1);
  StampPage(50, 2);
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(50), 1, opts_);
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(50), 1, opts_);
  EXPECT_TRUE(PageHasStamp(0, 1));
  EXPECT_TRUE(PageHasStamp(50, 2));
}

TEST_P(SwapVaTest, ZeroPagesAndSelfSwapAreNoOps) {
  StampPage(0, 7);
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(10), 0, opts_);
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(0), 3, opts_);
  EXPECT_TRUE(PageHasStamp(0, 7));
}

TEST_P(SwapVaTest, AdjacentRangesSameLeafDoNotDeadlock) {
  // Both PTEs live in the same leaf table -> one split-PTL; the pair-locking
  // path must detect that instead of self-deadlocking.
  StampPage(10, 1);
  StampPage(11, 2);
  kernel_.SysSwapVa(as_, ctx_, PageAddr(10), PageAddr(11), 1, opts_);
  EXPECT_TRUE(PageHasStamp(10, 2));
  EXPECT_TRUE(PageHasStamp(11, 1));
}

TEST_P(SwapVaTest, NoBytesAreCopied) {
  StampPage(0, 1);
  StampPage(200, 2);
  const std::byte* frame_before = as_.RawPtr(PageAddr(0));
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(200), 1, opts_);
  // The virtual page now resolves to the *other* physical frame: data moved
  // by remapping, not by copying.
  EXPECT_EQ(as_.RawPtr(PageAddr(200)), frame_before);
  EXPECT_DOUBLE_EQ(ctx_.account.ByKind(CostKind::kCopy), 0.0);
}

// --- overlap rotation (Algorithm 2) ------------------------------------------

// Property: for any (pages, delta) with delta < pages, swapping
// [lo, lo+pages) with [lo+delta, lo+delta+pages) realizes the rotation
// new[j] = old[(j + delta) mod (pages + delta)] over the combined span; in
// particular the destination range receives exactly the old source range —
// the overlapping-move semantics GC compaction requires.
struct OverlapCase {
  std::uint64_t pages;
  std::uint64_t delta;
};

class SwapVaOverlap
    : public ::testing::TestWithParam<
          std::tuple<TranslationBackend, OverlapCase>> {};

std::string OverlapName(
    const ::testing::TestParamInfo<SwapVaOverlap::ParamType>& info) {
  const OverlapCase oc = std::get<1>(info.param);
  return std::string(TranslationBackendName(std::get<0>(info.param))) + "_p" +
         std::to_string(oc.pages) + "_d" + std::to_string(oc.delta);
}

TEST_P(SwapVaOverlap, RotationProperty) {
  const auto [pages, delta] = std::get<1>(GetParam());
  ASSERT_LT(delta, pages);
  Machine machine(2, ProfileXeonGold6130(), std::get<0>(GetParam()));
  Kernel kernel(machine);
  PhysicalMemory phys((pages + delta + 8) * kPageSize);
  AddressSpace as(machine, phys);
  const std::uint64_t span = pages + delta;
  as.MapRange(kBase, span * kPageSize);
  for (std::uint64_t i = 0; i < span; ++i) {
    as.WriteWord(kBase + i * kPageSize, 0xAB00 + i);
  }
  CpuContext ctx(machine, 0);
  kernel.SysSwapVa(as, ctx, kBase, kBase + delta * kPageSize, pages,
                   SwapVaOptions{});
  for (std::uint64_t j = 0; j < span; ++j) {
    EXPECT_EQ(as.ReadWord(kBase + j * kPageSize), 0xAB00 + (j + delta) % span)
        << "j=" << j << " pages=" << pages << " delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GcdCycleShapes, SwapVaOverlap,
    ::testing::Combine(
        ::testing::Values(TranslationBackend::kRadix,
                          TranslationBackend::kHashed),
        ::testing::Values(OverlapCase{2, 1}, OverlapCase{3, 1},
                          OverlapCase{4, 2}, OverlapCase{6, 4},
                          OverlapCase{8, 6}, OverlapCase{9, 3},
                          OverlapCase{16, 1}, OverlapCase{16, 15},
                          OverlapCase{12, 8}, OverlapCase{25, 10},
                          OverlapCase{64, 48}, OverlapCase{100, 60})),
    OverlapName);

TEST_P(SwapVaTest, OverlapTouchesPagesPlusDelta) {
  const auto before = kernel_.pages_swapped();
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(6), 10, opts_);
  // O(n + delta): 10 + 6 pages visited, not 2*10.
  EXPECT_EQ(kernel_.pages_swapped() - before, 16u);
}

TEST_P(SwapVaTest, OverlapMoveUsableAsGcMove) {
  // MoveObject(source, dest) with dest < source and overlap: dest range must
  // receive the old source content exactly.
  constexpr std::uint64_t kPages = 12;
  constexpr std::uint64_t kDelta = 5;
  for (std::uint64_t i = 0; i < kPages; ++i) StampPage(kDelta + i, 0x9000 + i);
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(kDelta), kPages, opts_);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    EXPECT_TRUE(PageHasStamp(i, 0x9000 + i)) << i;
  }
}

// --- aggregation -------------------------------------------------------------

TEST_P(SwapVaTest, VectoredCallMatchesSeparatedResults) {
  for (std::uint64_t i = 0; i < 6; ++i) StampPage(i, 0x100 + i);
  for (std::uint64_t i = 0; i < 6; ++i) StampPage(300 + i, 0x200 + i);
  std::vector<SwapRequest> requests;
  for (std::uint64_t i = 0; i < 6; i += 2) {
    requests.push_back({PageAddr(i), PageAddr(300 + i), 2});
  }
  kernel_.SysSwapVaVec(as_, ctx_, requests, opts_);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(PageHasStamp(i, 0x200 + i));
    EXPECT_TRUE(PageHasStamp(300 + i, 0x100 + i));
  }
}

TEST_P(SwapVaTest, AggregationChargesOneSyscall) {
  std::vector<SwapRequest> requests;
  for (std::uint64_t i = 0; i < 8; ++i) {
    requests.push_back({PageAddr(2 * i), PageAddr(200 + 2 * i), 1});
  }
  CpuContext vec_ctx(machine_, 0);
  kernel_.SysSwapVaVec(as_, vec_ctx, requests, opts_);
  EXPECT_DOUBLE_EQ(vec_ctx.account.ByKind(CostKind::kSyscall),
                   machine_.cost().syscall_entry);

  CpuContext sep_ctx(machine_, 0);
  for (const auto& req : requests) {
    kernel_.SysSwapVa(as_, sep_ctx, req.a, req.b, req.pages, opts_);
  }
  EXPECT_DOUBLE_EQ(sep_ctx.account.ByKind(CostKind::kSyscall),
                   8 * machine_.cost().syscall_entry);
  EXPECT_LT(vec_ctx.account.total(), sep_ctx.account.total());
}

TEST_P(SwapVaTest, EmptyVectorChargesOnlyEntry) {
  CpuContext ctx(machine_, 0);
  kernel_.SysSwapVaVec(as_, ctx, {}, opts_);
  EXPECT_DOUBLE_EQ(ctx.account.total(), machine_.cost().syscall_entry);
}

// --- optimizations & cost structure ------------------------------------------

TEST_P(SwapVaTest, PmdCachingIsCheaperForMultiPage) {
  SwapVaOptions cached = opts_;
  SwapVaOptions uncached = opts_;
  uncached.pmd_caching = false;
  CpuContext with_cache(machine_, 0), without(machine_, 0);
  kernel_.SysSwapVa(as_, with_cache, PageAddr(0), PageAddr(128), 64, cached);
  kernel_.SysSwapVa(as_, without, PageAddr(0), PageAddr(128), 64, uncached);
  if (GetParam() == TranslationBackend::kRadix) {
    EXPECT_LT(with_cache.account.ByKind(CostKind::kPageWalk),
              without.account.ByKind(CostKind::kPageWalk));
  } else {
    // No directory walk to cache: the knob is inert on the hashed backend.
    EXPECT_DOUBLE_EQ(with_cache.account.ByKind(CostKind::kPageWalk),
                     without.account.ByKind(CostKind::kPageWalk));
  }
}

TEST_P(SwapVaTest, CostIsLinearInPages) {
  SwapVaOptions local = opts_;
  local.tlb_policy = TlbPolicy::kLocalOnly;  // exclude per-call IPI fan-out
  CpuContext small(machine_, 0), large(machine_, 0);
  kernel_.SysSwapVa(as_, small, PageAddr(0), PageAddr(128), 10, local);
  kernel_.SysSwapVa(as_, large, PageAddr(0), PageAddr(128), 100, local);
  const double fixed = machine_.cost().syscall_entry +
                       machine_.cost().tlb_flush_local;
  const double per_page_small = (small.account.total() - fixed) / 10;
  const double per_page_large = (large.account.total() - fixed) / 100;
  EXPECT_NEAR(per_page_small, per_page_large, per_page_small * 0.25);
}

// --- TLB coherence policies --------------------------------------------------

TEST_P(SwapVaTest, GlobalPolicyShootsDownOtherCores) {
  machine_.ResetCounters();
  SwapVaOptions global = opts_;
  global.tlb_policy = TlbPolicy::kGlobalPerCall;
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(100), 2, global);
  EXPECT_EQ(machine_.metrics().CounterValue("ipi.sent"),
            machine_.num_cores() - 1);
}

TEST_P(SwapVaTest, LocalPolicySendsNoIpis) {
  machine_.ResetCounters();
  SwapVaOptions local = opts_;
  local.tlb_policy = TlbPolicy::kLocalOnly;
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(100), 2, local);
  EXPECT_EQ(machine_.metrics().CounterValue("ipi.sent"), 0u);
}

TEST_P(SwapVaTest, LocalTlbIsFlushedAfterSwap) {
  // Warm the local TLB with the pre-swap translation, swap, then verify the
  // hardware path re-walks and sees the *new* frame (the DCHECK inside
  // HwPtr would abort on a stale hit).
  StampPage(0, 1);
  StampPage(9, 2);
  (void)as_.HwPtr(ctx_, PageAddr(0));
  (void)as_.HwPtr(ctx_, PageAddr(9));
  SwapVaOptions local = opts_;
  local.tlb_policy = TlbPolicy::kLocalOnly;
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(9), 1, local);
  const std::byte* p0 = as_.HwPtr(ctx_, PageAddr(0));
  EXPECT_EQ(p0, as_.RawPtr(PageAddr(0)));
  EXPECT_EQ(as_.ReadWord(PageAddr(0)), 2 ^ 0u);
}

TEST_P(SwapVaTest, FlushProcessTlbsClearsEveryCore) {
  for (unsigned core = 0; core < machine_.num_cores(); ++core) {
    machine_.tlb(core).Insert(as_.asid(), 1, 1);
  }
  kernel_.SysFlushProcessTlbs(as_, ctx_);
  for (unsigned core = 0; core < machine_.num_cores(); ++core) {
    EXPECT_FALSE(machine_.tlb(core).Lookup(as_.asid(), 1).hit) << core;
  }
}

TEST_P(SwapVaTest, PinUnpinChargeSyscalls) {
  CpuContext ctx(machine_, 0);
  kernel_.SysPin(ctx);
  kernel_.SysUnpin(ctx);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kSyscall),
                   2 * machine_.cost().syscall_entry);
}

TEST_P(SwapVaTest, CountersTrackCallsAndPages) {
  const auto calls = kernel_.swapva_calls();
  const auto pages = kernel_.pages_swapped();
  kernel_.SysSwapVa(as_, ctx_, PageAddr(0), PageAddr(100), 5, opts_);
  EXPECT_EQ(kernel_.swapva_calls(), calls + 1);
  EXPECT_EQ(kernel_.pages_swapped(), pages + 5);
}

// Randomized differential test: an arbitrary sequence of swaps/moves must
// leave the address space exactly like a reference model (a host array
// manipulated with std::swap_ranges/std::memmove).
TEST_P(SwapVaTest, RandomizedDifferentialAgainstReferenceModel) {
  constexpr std::uint64_t kPages = 64;
  std::vector<std::uint64_t> reference(kPages);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    reference[i] = 0x5500 + i;
    as_.WriteWord(PageAddr(i), reference[i]);
  }
  Rng rng(2024);
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t pages = rng.NextInRange(1, 16);
    const std::uint64_t a = rng.NextBelow(kPages - pages);
    const std::uint64_t b = rng.NextBelow(kPages - pages);
    kernel_.SysSwapVa(as_, ctx_, PageAddr(a), PageAddr(b), pages, opts_);
    // Reference semantics: disjoint -> swap; overlapping -> rotation of the
    // combined span by delta (documented overlap behaviour).
    const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
    if (hi - lo >= pages) {
      std::swap_ranges(reference.begin() + a, reference.begin() + a + pages,
                       reference.begin() + b);
    } else if (lo != hi) {
      const std::uint64_t delta = hi - lo;
      const std::uint64_t span = pages + delta;
      std::vector<std::uint64_t> rotated(span);
      for (std::uint64_t j = 0; j < span; ++j) {
        rotated[j] = reference[lo + (j + delta) % span];
      }
      std::copy(rotated.begin(), rotated.end(), reference.begin() + lo);
    }
    for (std::uint64_t i = 0; i < kPages; ++i) {
      ASSERT_EQ(as_.ReadWord(PageAddr(i)), reference[i])
          << "step " << step << " page " << i;
    }
  }
}

// --- PMD-level huge-entry swapping -------------------------------------------

class SwapVaHugeTest : public ::testing::TestWithParam<TranslationBackend> {
 protected:
  static constexpr std::uint64_t kUnits = 8;  // mapped 2 MiB units
  static constexpr vaddr_t kHugeBase = 1ULL << 33;

  SwapVaHugeTest() {
    as_.MapRangeHuge(kHugeBase, kUnits * kHugePageSize);
    opts_.pmd_swapping = true;
  }

  vaddr_t UnitAddr(std::uint64_t unit) {
    return kHugeBase + unit * kHugePageSize;
  }
  vaddr_t PageAddr(std::uint64_t page) { return kHugeBase + page * kPageSize; }
  void StampPage(std::uint64_t page, std::uint64_t stamp) {
    as_.WriteWord(PageAddr(page), stamp);
  }
  std::uint64_t ReadPage(std::uint64_t page) {
    return as_.ReadWord(PageAddr(page));
  }

  Machine machine_{4, ProfileXeonGold6130(), GetParam()};
  Kernel kernel_{machine_};
  PhysicalMemory phys_{(kUnits + 1) * kHugePageSize};
  AddressSpace as_{machine_, phys_};
  CpuContext ctx_{machine_, 0};
  SwapVaOptions opts_{};
};

INSTANTIATE_TEST_SUITE_P(Backends, SwapVaHugeTest,
                         ::testing::Values(TranslationBackend::kRadix,
                                           TranslationBackend::kHashed),
                         BackendName);

TEST_P(SwapVaHugeTest, AlignedSwapExchangesPmdEntries) {
  for (std::uint64_t p = 0; p < 2 * kPagesPerHuge; ++p) {
    StampPage(p, 0xA000 + p);
    StampPage(4 * kPagesPerHuge + p, 0xB000 + p);
  }
  ASSERT_EQ(kernel_.SysSwapVa(as_, ctx_, UnitAddr(0), UnitAddr(4),
                              2 * kPagesPerHuge, opts_),
            SysStatus::kOk);
  for (std::uint64_t p = 0; p < 2 * kPagesPerHuge; ++p) {
    ASSERT_EQ(ReadPage(p), 0xB000 + p) << p;
    ASSERT_EQ(ReadPage(4 * kPagesPerHuge + p), 0xA000 + p) << p;
  }
  EXPECT_EQ(kernel_.pmd_swaps(), 2u);
  EXPECT_EQ(kernel_.pte_swaps(), 0u);
  EXPECT_EQ(kernel_.pmd_splits(), 0u);
  EXPECT_EQ(kernel_.pages_swapped(), 2 * kPagesPerHuge);
  // One entry write per 2 MiB — not 512.
  EXPECT_DOUBLE_EQ(ctx_.account.ByKind(CostKind::kPteUpdate),
                   2 * machine_.cost().pte_update);
  // The swapped units stay huge-mapped: no demotion on the fast path.
  Translation& table = as_.translation();
  for (const std::uint64_t unit : {0ull, 1ull, 4ull, 5ull}) {
    EXPECT_TRUE(
        table.LookupHuge((UnitAddr(unit)) >> kPageShift).has_value())
        << unit;
  }
  EXPECT_EQ(table.CountAliasedUnits(), 0u);
}

TEST_P(SwapVaHugeTest, DisabledOptionSplitsAndSwapsPtes) {
  SwapVaOptions pte_only = opts_;
  pte_only.pmd_swapping = false;
  StampPage(0, 1);
  StampPage(4 * kPagesPerHuge, 2);
  ASSERT_EQ(kernel_.SysSwapVa(as_, ctx_, UnitAddr(0), UnitAddr(4),
                              kPagesPerHuge, pte_only),
            SysStatus::kOk);
  EXPECT_EQ(ReadPage(0), 2u);
  EXPECT_EQ(ReadPage(4 * kPagesPerHuge), 1u);
  EXPECT_EQ(kernel_.pmd_swaps(), 0u);
  EXPECT_EQ(kernel_.pte_swaps(), kPagesPerHuge);
  EXPECT_EQ(kernel_.pmd_splits(), 2u);  // both units demoted
  EXPECT_FALSE(
      as_.translation().LookupHuge(UnitAddr(0) >> kPageShift).has_value());
}

TEST_P(SwapVaHugeTest, RaggedTailSplitsOnlyTailUnits) {
  const std::uint64_t pages = kPagesPerHuge + 8;  // 1 unit + 8-page tail
  for (std::uint64_t p = 0; p < pages; ++p) {
    StampPage(p, 0xC000 + p);
    StampPage(4 * kPagesPerHuge + p, 0xD000 + p);
  }
  ASSERT_EQ(
      kernel_.SysSwapVa(as_, ctx_, UnitAddr(0), UnitAddr(4), pages, opts_),
      SysStatus::kOk);
  for (std::uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(ReadPage(p), 0xD000 + p) << p;
    ASSERT_EQ(ReadPage(4 * kPagesPerHuge + p), 0xC000 + p) << p;
  }
  EXPECT_EQ(kernel_.pmd_swaps(), 1u);
  EXPECT_EQ(kernel_.pte_swaps(), 8u);
  EXPECT_EQ(kernel_.pmd_splits(), 2u);  // only the two tail units demote
  Translation& table = as_.translation();
  EXPECT_TRUE(table.LookupHuge(UnitAddr(0) >> kPageShift).has_value());
  EXPECT_TRUE(table.LookupHuge(UnitAddr(4) >> kPageShift).has_value());
  EXPECT_FALSE(table.LookupHuge(UnitAddr(1) >> kPageShift).has_value());
  EXPECT_FALSE(table.LookupHuge(UnitAddr(5) >> kPageShift).has_value());
  EXPECT_EQ(table.CountAliasedUnits(), 0u);
}

TEST_P(SwapVaHugeTest, UnalignedAddressesFallBackToPteExchange) {
  StampPage(3, 7);
  StampPage(4 * kPagesPerHuge + 3, 9);
  ASSERT_EQ(kernel_.SysSwapVa(as_, ctx_, PageAddr(3),
                              PageAddr(4 * kPagesPerHuge + 3), 4, opts_),
            SysStatus::kOk);
  EXPECT_EQ(ReadPage(3), 9u);
  EXPECT_EQ(ReadPage(4 * kPagesPerHuge + 3), 7u);
  EXPECT_EQ(kernel_.pmd_swaps(), 0u);
  EXPECT_EQ(kernel_.pte_swaps(), 4u);
  EXPECT_EQ(kernel_.pmd_splits(), 2u);
}

TEST_P(SwapVaHugeTest, CounterIdentityHoldsAcrossMixedCalls) {
  kernel_.SysSwapVa(as_, ctx_, UnitAddr(0), UnitAddr(4), kPagesPerHuge, opts_);
  kernel_.SysSwapVa(as_, ctx_, UnitAddr(1), UnitAddr(5),
                    kPagesPerHuge + 12, opts_);
  kernel_.SysSwapVa(as_, ctx_, PageAddr(5), PageAddr(3 * kPagesPerHuge), 7,
                    opts_);
  EXPECT_EQ(kernel_.pmd_swaps() * kPagesPerHuge + kernel_.pte_swaps(),
            kernel_.pages_swapped());
}

TEST_P(SwapVaHugeTest, HugeTlbEntryHasUnitReachAndUnitFlushGranularity) {
  Tlb& tlb = machine_.tlb(0);
  const std::uint64_t unit_vpn = UnitAddr(2) >> kPageShift;
  const frame_t base =
      *as_.translation().LookupHuge(unit_vpn);
  tlb.InsertHuge(as_.asid(), unit_vpn, base);
  // One entry answers for every page of the unit, with the per-page frame.
  for (const std::uint64_t off : {0ull, 1ull, 255ull, 511ull}) {
    const auto hit = tlb.Lookup(as_.asid(), unit_vpn + off);
    ASSERT_TRUE(hit.hit) << off;
    EXPECT_EQ(hit.frame, base + off) << off;
  }
  // invlpg of any covered 4 KiB vpn drops the whole huge entry.
  tlb.FlushPage(as_.asid(), unit_vpn + 300);
  EXPECT_FALSE(tlb.Lookup(as_.asid(), unit_vpn).hit);
  EXPECT_FALSE(tlb.Lookup(as_.asid(), unit_vpn + 300).hit);
}

TEST_P(SwapVaHugeTest, HardwareWalkInstallsHugeEntry) {
  // First touch misses and walks; the installed 2 MiB entry then covers the
  // whole unit, so a different page of the same unit hits.
  (void)as_.HwPtr(ctx_, UnitAddr(2));
  const std::uint64_t hits_before = machine_.tlb(0).hits();
  (void)as_.HwPtr(ctx_, UnitAddr(2) + 100 * kPageSize);
  EXPECT_EQ(machine_.tlb(0).hits(), hits_before + 1);
}

TEST_P(SwapVaHugeTest, OverlapRotatesWholePmdEntries) {
  // GC-style downward move by one unit: [u1, u3) -> [u0, u2). The rotation
  // spans 3 units; every unit is huge-mapped, so the kernel rotates the PMD
  // entries themselves.
  for (std::uint64_t u = 0; u < 3; ++u) {
    for (std::uint64_t p = 0; p < kPagesPerHuge; p += 37) {
      StampPage(u * kPagesPerHuge + p, 0xE000 + u * kPagesPerHuge + p);
    }
    // Warm this core's TLB with huge entries covering the span: the per-unit
    // flush of the rotation must invalidate them (HwPtr asserts freshness).
    (void)as_.HwPtr(ctx_, UnitAddr(u));
  }
  SwapVaOptions local = opts_;
  local.tlb_policy = TlbPolicy::kLocalOnly;
  ASSERT_EQ(kernel_.SysSwapVa(as_, ctx_, UnitAddr(0), UnitAddr(1),
                              2 * kPagesPerHuge, local),
            SysStatus::kOk);
  // new[j] = old[(j + delta) mod span] over the 3-unit span.
  for (std::uint64_t j = 0; j < 3 * kPagesPerHuge; ++j) {
    const std::uint64_t src = (j + kPagesPerHuge) % (3 * kPagesPerHuge);
    if (src % kPagesPerHuge % 37 != 0) continue;  // unstamped page
    (void)as_.HwPtr(ctx_, PageAddr(j));  // translate through the TLB
    ASSERT_EQ(ReadPage(j), 0xE000 + src) << j;
  }
  EXPECT_EQ(kernel_.pmd_swaps(), 3u);  // span_units placements
  EXPECT_EQ(kernel_.pte_swaps(), 0u);
  EXPECT_EQ(kernel_.pmd_splits(), 0u);
  EXPECT_EQ(kernel_.pages_swapped(), 3 * kPagesPerHuge);
}

TEST_P(SwapVaHugeTest, OverlapFallsBackWhenSpanNotAllHuge) {
  // Demote unit 2 first (a sub-unit PTE swap inside it), then the same
  // rotation must take the PTE path: all-huge pre-scan fails.
  kernel_.SysSwapVa(as_, ctx_, PageAddr(2 * kPagesPerHuge),
                    PageAddr(6 * kPagesPerHuge + 1), 1, opts_);
  ASSERT_FALSE(
      as_.translation().LookupHuge(UnitAddr(2) >> kPageShift).has_value());
  const std::uint64_t pmd_before = kernel_.pmd_swaps();
  StampPage(kPagesPerHuge, 0x77);
  ASSERT_EQ(kernel_.SysSwapVa(as_, ctx_, UnitAddr(0), UnitAddr(1),
                              2 * kPagesPerHuge, opts_),
            SysStatus::kOk);
  EXPECT_EQ(ReadPage(0), 0x77u);  // dest received old source
  EXPECT_EQ(kernel_.pmd_swaps(), pmd_before);
  // 1 page from the demoting swap + the whole 3-unit rotation span.
  EXPECT_EQ(kernel_.pte_swaps(), 1u + 3 * kPagesPerHuge);
  EXPECT_EQ(as_.translation().CountAliasedUnits(), 0u);
}

}  // namespace
}  // namespace svagc::sim
