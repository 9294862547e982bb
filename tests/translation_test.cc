// Translation-backend tests: the backend-neutral contract (map/lookup/huge
// duality, LeafForPteSwap demotion, unit exchange), the two-leaf lock-order
// helper, the kernel.translation.* counters, the cost signature separating
// the radix walk from the hashed O(1) relink, and the cross-backend
// differential sweep asserting that GC heap digests are identical no matter
// which structure translates.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "simkernel/hashed_page_table.h"
#include "simkernel/page_table.h"
#include "simkernel/swapva.h"
#include "telemetry/metrics.h"
#include "verify/differential_oracle.h"

namespace svagc {
namespace {

using sim::CostKind;
using sim::CostProfile;
using sim::CycleAccount;
using sim::frame_t;
using sim::kHugePageSize;
using sim::kPageShift;
using sim::kPageSize;
using sim::kPagesPerHuge;
using sim::MakeTranslation;
using sim::OrderedLockPair;
using sim::OrderLeafLocks;
using sim::PmdCache;
using sim::ProfileXeonGold6130;
using sim::Translation;
using sim::TranslationBackend;
using sim::TranslationBackendName;

std::string BackendName(
    const ::testing::TestParamInfo<TranslationBackend>& info) {
  return TranslationBackendName(info.param);
}

// --- backend-neutral contract, driven through the interface alone ------------

class TranslationConformance
    : public ::testing::TestWithParam<TranslationBackend> {
 protected:
  TranslationConformance()
      : table_(MakeTranslation(GetParam(), /*asid=*/7, /*metrics=*/nullptr)) {}

  CostProfile cost_ = ProfileXeonGold6130();
  CycleAccount acct_;
  std::unique_ptr<Translation> table_;
};

INSTANTIATE_TEST_SUITE_P(Backends, TranslationConformance,
                         ::testing::Values(TranslationBackend::kRadix,
                                           TranslationBackend::kHashed),
                         BackendName);

TEST_P(TranslationConformance, MapLookupUnmapRoundTrip) {
  EXPECT_EQ(table_->mapped_pages(), 0u);
  // Sparse vpns spanning several directory levels / hash buckets.
  const std::vector<std::uint64_t> vpns = {0, 1, 511, 512, 1 << 20,
                                           (1ULL << 30) + 3};
  for (std::size_t i = 0; i < vpns.size(); ++i) {
    table_->Map(vpns[i], 100 + i);
  }
  EXPECT_EQ(table_->mapped_pages(), vpns.size());
  for (std::size_t i = 0; i < vpns.size(); ++i) {
    const auto frame = table_->Lookup(vpns[i]);
    ASSERT_TRUE(frame.has_value()) << vpns[i];
    EXPECT_EQ(*frame, 100 + i);
  }
  EXPECT_FALSE(table_->Lookup(2).has_value());
  EXPECT_EQ(table_->Unmap(511), 102u);
  EXPECT_FALSE(table_->Lookup(511).has_value());
  EXPECT_EQ(table_->mapped_pages(), vpns.size() - 1);
}

TEST_P(TranslationConformance, HugeLeafCoversWholeUnit) {
  const std::uint64_t unit_vpn = 4 * kPagesPerHuge;
  table_->MapHuge(unit_vpn, 1000);
  EXPECT_EQ(table_->mapped_pages(), kPagesPerHuge);
  EXPECT_EQ(table_->CountHugeLeaves(), 1u);
  ASSERT_TRUE(table_->LookupHuge(unit_vpn).has_value());
  EXPECT_EQ(*table_->LookupHuge(unit_vpn), 1000u);
  // Per-page resolution through the huge leaf: base + offset.
  for (const std::uint64_t off : {0ull, 1ull, 255ull, 511ull}) {
    const auto frame = table_->Lookup(unit_vpn + off);
    ASSERT_TRUE(frame.has_value()) << off;
    EXPECT_EQ(*frame, 1000 + off);
  }
  EXPECT_FALSE(table_->LookupHuge(unit_vpn + kPagesPerHuge).has_value());
  EXPECT_EQ(table_->UnmapHuge(unit_vpn), 1000u);
  EXPECT_EQ(table_->mapped_pages(), 0u);
  EXPECT_EQ(table_->CountHugeLeaves(), 0u);
}

TEST_P(TranslationConformance, LeafForPteSwapDemotesHugeLeaf) {
  const std::uint64_t unit_vpn = 2 * kPagesPerHuge;
  table_->MapHuge(unit_vpn, 512);
  PmdCache cache;
  const Translation::PteRef ref =
      table_->LeafForPteSwap(unit_vpn + 37, acct_, cost_, &cache);
  ASSERT_NE(ref.slot, nullptr);
  ASSERT_NE(ref.lock, nullptr);
  EXPECT_TRUE(ref.split_huge);
  EXPECT_EQ(ref.slot->frame(), 512 + 37u);
  // Demoted: no huge leaf left, no aliasing, per-page lookups still resolve.
  EXPECT_EQ(table_->CountHugeLeaves(), 0u);
  EXPECT_EQ(table_->CountAliasedUnits(), 0u);
  EXPECT_EQ(table_->mapped_pages(), kPagesPerHuge);
  EXPECT_EQ(*table_->Lookup(unit_vpn + 511), 512 + 511u);
  // Second resolution of the same page: already 4 KiB, no further split.
  const Translation::PteRef again =
      table_->LeafForPteSwap(unit_vpn + 37, acct_, cost_, &cache);
  EXPECT_FALSE(again.split_huge);
  EXPECT_EQ(again.slot, ref.slot);
}

TEST_P(TranslationConformance, ExchangeUnitsIsInvolutive) {
  table_->MapHuge(0, 0);
  table_->MapHuge(kPagesPerHuge, kPagesPerHuge);
  ASSERT_TRUE(table_->CanExchangeUnits(0, kPagesPerHuge, 1));
  PmdCache ca, cb;
  table_->ExchangeUnits(0, kPagesPerHuge, acct_, cost_, &ca, &cb);
  EXPECT_EQ(*table_->LookupHuge(0), kPagesPerHuge);
  EXPECT_EQ(*table_->LookupHuge(kPagesPerHuge), 0u);
  EXPECT_EQ(*table_->Lookup(5), kPagesPerHuge + 5);
  table_->ExchangeUnits(0, kPagesPerHuge, acct_, cost_, &ca, &cb);
  EXPECT_EQ(*table_->LookupHuge(0), 0u);
  EXPECT_EQ(*table_->LookupHuge(kPagesPerHuge), kPagesPerHuge);
}

TEST_P(TranslationConformance, HugeEntryForSwapExposesRotatableSlot) {
  table_->MapHuge(0, 0);
  table_->MapHuge(kPagesPerHuge, kPagesPerHuge);
  table_->MapHuge(2 * kPagesPerHuge, 2 * kPagesPerHuge);
  PmdCache cache;
  sim::Pte* e0 = table_->HugeEntryForSwap(0, acct_, cost_, &cache);
  sim::Pte* e1 = table_->HugeEntryForSwap(kPagesPerHuge, acct_, cost_, &cache);
  sim::Pte* e2 =
      table_->HugeEntryForSwap(2 * kPagesPerHuge, acct_, cost_, &cache);
  // A 3-cycle rotation over the raw slots, as Algorithm 2 performs it.
  const sim::Pte tmp = *e0;
  *e0 = *e1;
  *e1 = *e2;
  *e2 = tmp;
  EXPECT_EQ(*table_->LookupHuge(0), kPagesPerHuge);
  EXPECT_EQ(*table_->LookupHuge(kPagesPerHuge), 2 * kPagesPerHuge);
  EXPECT_EQ(*table_->LookupHuge(2 * kPagesPerHuge), 0u);
  EXPECT_EQ(table_->CountAliasedUnits(), 0u);
}

TEST_P(TranslationConformance, HardwareWalkResolvesBothGranularities) {
  table_->Map(3, 42);
  table_->MapHuge(8 * kPagesPerHuge, 2048);
  Translation::HugeTranslation huge;
  const auto small = table_->HardwareWalk(3, acct_, cost_, &huge);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(*small, 42u);
  EXPECT_FALSE(huge.huge);
  const auto big =
      table_->HardwareWalk(8 * kPagesPerHuge + 100, acct_, cost_, &huge);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(*big, 2048 + 100u);
  EXPECT_TRUE(huge.huge);
  EXPECT_EQ(huge.unit_base_frame, 2048u);
  EXPECT_FALSE(table_->HardwareWalk(9999, acct_, cost_).has_value());
  EXPECT_GT(acct_.ByKind(CostKind::kTlbRefill), 0.0);
}

// The hashed backend can only relink whole huge-class entries: a split unit
// on either side must fail the pre-scan (the kernel then falls back to the
// PTE loop). The radix backend exchanges PMD slots regardless.
TEST_P(TranslationConformance, CanExchangeUnitsRequiresHugeOnHashed) {
  table_->MapHuge(0, 0);
  table_->MapHuge(kPagesPerHuge, kPagesPerHuge);
  PmdCache cache;
  (void)table_->LeafForPteSwap(3, acct_, cost_, &cache);  // split unit 0
  const bool can = table_->CanExchangeUnits(0, kPagesPerHuge, 1);
  if (GetParam() == TranslationBackend::kRadix) {
    EXPECT_TRUE(can);
  } else {
    EXPECT_FALSE(can);
  }
}

// --- the two-leaf lock-order helper (Algorithm 1's deadlock rule) ------------

TEST(TranslationLockOrder, OrdersByAddressAndCollapsesSameLock) {
  SpinLock a, b;
  SpinLock* lo = &a < &b ? &a : &b;
  SpinLock* hi = &a < &b ? &b : &a;
  const OrderedLockPair fwd = OrderLeafLocks(lo, hi);
  EXPECT_EQ(fwd.first, lo);
  EXPECT_EQ(fwd.second, hi);
  const OrderedLockPair rev = OrderLeafLocks(hi, lo);
  EXPECT_EQ(rev.first, lo);
  EXPECT_EQ(rev.second, hi);
  const OrderedLockPair same = OrderLeafLocks(&a, &a);
  EXPECT_EQ(same.first, &a);
  EXPECT_EQ(same.second, nullptr);
}

// --- kernel.translation.* counters -------------------------------------------

constexpr sim::vaddr_t kBase = 1ULL << 33;

class TranslationCounters
    : public ::testing::TestWithParam<TranslationBackend> {
 protected:
  std::uint64_t Ctr(const char* name) {
    return machine_.metrics().CounterValue(name);
  }

  sim::Machine machine_{2, ProfileXeonGold6130(), GetParam()};
  sim::Kernel kernel_{machine_};
  sim::PhysicalMemory phys_{512 * kPageSize};
  sim::AddressSpace as_{machine_, phys_};
  sim::CpuContext ctx_{machine_, 0};
};

INSTANTIATE_TEST_SUITE_P(Backends, TranslationCounters,
                         ::testing::Values(TranslationBackend::kRadix,
                                           TranslationBackend::kHashed),
                         BackendName);

TEST_P(TranslationCounters, BackendSignatureInCounters) {
  as_.MapRange(kBase, 256 * kPageSize);
  kernel_.SysSwapVa(as_, ctx_, kBase, kBase + 128 * kPageSize, 16,
                    sim::SwapVaOptions{});
  (void)as_.HwPtr(ctx_, kBase);  // one TLB miss -> one refill
  if (GetParam() == TranslationBackend::kRadix) {
    EXPECT_GT(Ctr("kernel.translation.walks"), 0u);
    EXPECT_EQ(Ctr("kernel.translation.probes"), 0u);
    EXPECT_EQ(Ctr("kernel.translation.relinks"), 0u);
    EXPECT_EQ(Ctr("kernel.translation.swtlb_fills"), 0u);
  } else {
    EXPECT_EQ(Ctr("kernel.translation.walks"), 0u);
    EXPECT_GT(Ctr("kernel.translation.probes"), 0u);
    // One O(1) slot resolution per swapped page side: 2 * 16 pages.
    EXPECT_EQ(Ctr("kernel.translation.relinks"), 32u);
    EXPECT_EQ(Ctr("kernel.translation.swtlb_fills"), 1u);
  }
}

TEST_P(TranslationCounters, SnapshotIsNameOrderedAndComplete) {
  // The counters are wired at AddressSpace construction, so they appear in
  // the machine snapshot (at zero) before any translation activity.
  const auto snapshot = machine_.metrics().SnapshotCounters();
  std::vector<std::string> want = {
      "kernel.translation.probes", "kernel.translation.relinks",
      "kernel.translation.swtlb_fills", "kernel.translation.walks"};
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
    }
    if (snapshot[i].first.rfind("kernel.translation.", 0) == 0) {
      seen.push_back(snapshot[i].first);
    }
  }
  EXPECT_EQ(seen, want);  // sorted arrival order == lexicographic order
}

// --- the cost signature: sparse swaps are where the hashed backend wins ------

// A sparse swap vector (single-page swaps, each in its own 2 MiB unit, PMD
// cache useless) pays a full directory walk per leaf on radix but O(1)
// bucket probes on hashed: the modeled translation cycles must be strictly
// lower on hashed. This is the Fig. 21 claim in miniature.
TEST(TranslationCost, SparseSwapVectorCheaperOnHashed) {
  const CostProfile profile = ProfileXeonGold6130();
  double walk_cycles[2] = {0, 0};
  const TranslationBackend backends[2] = {TranslationBackend::kRadix,
                                          TranslationBackend::kHashed};
  for (int i = 0; i < 2; ++i) {
    sim::Machine machine(2, profile, backends[i]);
    sim::Kernel kernel(machine);
    sim::PhysicalMemory phys(256 * kPageSize);
    sim::AddressSpace as(machine, phys);
    std::vector<sim::SwapRequest> requests;
    for (std::uint64_t j = 0; j < 32; ++j) {
      // One page every 2 MiB: every request lands in a fresh PMD/unit.
      const sim::vaddr_t a = kBase + j * kHugePageSize;
      const sim::vaddr_t b = kBase + (64 + j) * kHugePageSize;
      as.MapRange(a, kPageSize);
      as.MapRange(b, kPageSize);
      requests.push_back({a, b, 1});
    }
    sim::CpuContext ctx(machine, 0);
    kernel.SysSwapVaVec(as, ctx, requests, sim::SwapVaOptions{});
    walk_cycles[i] = ctx.account.ByKind(CostKind::kPageWalk);
  }
  EXPECT_LT(walk_cycles[1], walk_cycles[0])
      << "hashed=" << walk_cycles[1] << " radix=" << walk_cycles[0];
}

// --- cross-backend differential sweep ----------------------------------------

// The same workload + forced GC cycle, once per backend: both oracles must
// match their memmove arm AND their post-GC heap digests must be identical
// to each other — the translation structure can change what GC costs, never
// what it produces.
class TranslationDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TranslationDifferential, HeapDigestsIdenticalAcrossBackends) {
  verify::OracleConfig config;
  config.workload = GetParam();
  config.swap_threshold_pages = 10;
  config.large_object_salt = 3;  // guarantee real SwapVA moves
  config.translation_backend = TranslationBackend::kRadix;
  const verify::OracleResult radix = verify::RunDifferentialOracle(config);
  config.translation_backend = TranslationBackend::kHashed;
  const verify::OracleResult hashed = verify::RunDifferentialOracle(config);

  EXPECT_TRUE(radix.match) << radix.divergence;
  EXPECT_TRUE(hashed.match) << hashed.divergence;
  EXPECT_GT(radix.swapped_bytes, 0u);
  EXPECT_EQ(radix.swapped_bytes, hashed.swapped_bytes);
  EXPECT_TRUE(radix.invariants_swap.ok) << radix.invariants_swap.Describe();
  EXPECT_TRUE(hashed.invariants_swap.ok) << hashed.invariants_swap.Describe();
  const std::string diff =
      verify::CompareDigests(radix.swap_digest, hashed.swap_digest);
  EXPECT_TRUE(diff.empty()) << diff;
}

INSTANTIATE_TEST_SUITE_P(Workloads, TranslationDifferential,
                         ::testing::Values("compress", "sparse.large", "bisort",
                                           "lrucache"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// Huge-path variant: with a 2 MiB alignment class and PMD swapping enabled,
// the hashed backend's huge bucket class must still reproduce the radix
// heap exactly.
TEST(TranslationDifferentialHuge, HugePathDigestsIdenticalAcrossBackends) {
  verify::OracleConfig config;
  config.workload = "lrucache";
  config.swap_threshold_pages = 10;
  config.large_object_salt = 3;
  config.huge_threshold_pages = 128;
  config.translation_backend = TranslationBackend::kRadix;
  const verify::OracleResult radix = verify::RunDifferentialOracle(config);
  config.translation_backend = TranslationBackend::kHashed;
  const verify::OracleResult hashed = verify::RunDifferentialOracle(config);
  EXPECT_TRUE(radix.match) << radix.divergence;
  EXPECT_TRUE(hashed.match) << hashed.divergence;
  const std::string diff =
      verify::CompareDigests(radix.swap_digest, hashed.swap_digest);
  EXPECT_TRUE(diff.empty()) << diff;
}

}  // namespace
}  // namespace svagc
