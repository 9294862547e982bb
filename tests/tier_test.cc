// Far-memory tier tests: the backend-neutral residency contract (enable-time
// demotion, the userspace fault path, slot bijection, clock second chance),
// SwapVA's zero-copy relink of swapped entries, the tier fault injections
// (kSwapSlotWriteLost, kDoubleEvict), huge-unit interactions (madvise skip,
// THP-split bookkeeping), the GC's cold-advice epilogue, and the
// cross-backend differential sweep with overcommit enabled. TierSoak.* is
// the overcommit soak ctest leg; it honors SVAGC_SOAK_SCALE like the fleet
// and concurrent soaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_set>

#include "simkernel/swapva.h"
#include "verify/differential_oracle.h"
#include "verify/fault_injector.h"
#include "workloads/runner.h"

namespace svagc {
namespace {

using sim::CostKind;
using sim::CpuContext;
using sim::FaultPoint;
using sim::kHugePageSize;
using sim::kPageShift;
using sim::kPageSize;
using sim::kPagesPerHuge;
using sim::ProfileXeonGold6130;
using sim::Pte;
using sim::TranslationBackend;
using sim::TranslationBackendName;

std::string BackendName(
    const ::testing::TestParamInfo<TranslationBackend>& info) {
  return TranslationBackendName(info.param);
}

constexpr std::uint64_t kTag = 0x7E0000000000ULL;

// A small process with every page tagged (first word = page index) so
// contents can be checked through any residency state via the raw path.
struct TierRig {
  sim::Machine machine;
  sim::Kernel kernel;
  sim::PhysicalMemory phys;
  sim::AddressSpace as;
  sim::vaddr_t base = 1ULL << 32;
  std::uint64_t pages;

  TierRig(TranslationBackend backend, std::uint64_t n,
          std::uint64_t extra_frames = 8)
      : machine(2, ProfileXeonGold6130(), backend),
        kernel(machine),
        phys((n + extra_frames) << kPageShift),
        as(machine, phys),
        pages(n) {
    as.MapRange(base, n << kPageShift);
    for (std::uint64_t i = 0; i < n; ++i) {
      as.WriteWord(base + (i << kPageShift), kTag + i);
    }
  }

  void Enable(std::uint64_t resident_limit) {
    sim::FarTierConfig config;
    config.resident_limit_pages = resident_limit;
    CpuContext ctx(machine, 0);
    as.EnableFarTier(kernel, ctx, config);
  }

  std::uint64_t Tag(std::uint64_t page) const {
    return as.ReadWord(base + (page << kPageShift));
  }
  Pte PteAt(std::uint64_t page) const {
    return as.translation().LookupPte((base >> kPageShift) + page);
  }
  sim::FarTier& tier() { return *as.far_tier(); }
};

// Census of the 4 KiB-granularity PTEs plus the slot-bijection facts the
// tier-residency invariant checks (duplicated here at the simkernel level,
// where no Jvm exists to run the registry against).
struct Census {
  std::uint64_t present = 0;
  std::uint64_t swapped = 0;
  bool slots_ok = true;  // every swapped slot allocated, no slot shared
};

Census TakeCensus(const sim::AddressSpace& as) {
  Census census;
  std::unordered_set<std::uint64_t> slots;
  const sim::FarTier* tier = as.far_tier();
  as.translation().VisitSmallPages([&](std::uint64_t, Pte pte) {
    if (pte.present()) {
      ++census.present;
    } else if (pte.swapped()) {
      ++census.swapped;
      if (tier == nullptr || !tier->SlotAllocated(pte.swap_slot()) ||
          !slots.insert(pte.swap_slot()).second) {
        census.slots_ok = false;
      }
    }
  });
  return census;
}

void ExpectBijection(TierRig& rig) {
  const Census census = TakeCensus(rig.as);
  EXPECT_TRUE(census.slots_ok);
  EXPECT_EQ(census.present, rig.tier().resident_pages());
  EXPECT_EQ(census.swapped, rig.tier().used_slots());
}

std::uint64_t SoakScale() {
  const char* env = std::getenv("SVAGC_SOAK_SCALE");
  if (env == nullptr || *env == '\0') return 1;
  const std::uint64_t scale = std::strtoull(env, nullptr, 10);
  return std::max<std::uint64_t>(1, scale);
}

// --- backend-neutral tier contract -------------------------------------------

class TierConformance : public ::testing::TestWithParam<TranslationBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, TierConformance,
                         ::testing::Values(TranslationBackend::kRadix,
                                           TranslationBackend::kHashed),
                         BackendName);

TEST_P(TierConformance, EnableEvictsDownToLimit) {
  TierRig rig(GetParam(), 16);
  rig.Enable(10);
  EXPECT_EQ(rig.tier().resident_pages(), 10u);
  EXPECT_EQ(rig.tier().used_slots(), 6u);
  EXPECT_EQ(rig.tier().evictions(), 6u);
  EXPECT_EQ(rig.tier().far_bytes_written(), 6 * kPageSize);
  ExpectBijection(rig);
  // Contents are residency-independent through the raw path: every tag
  // reads back whether the page sits in a frame or a far slot.
  for (std::uint64_t i = 0; i < rig.pages; ++i) {
    EXPECT_EQ(rig.Tag(i), kTag + i) << i;
  }
}

TEST_P(TierConformance, FaultPathSwapsInAndEvictsAVictim) {
  TierRig rig(GetParam(), 16);
  rig.Enable(10);
  std::uint64_t victim = rig.pages;
  for (std::uint64_t i = 0; i < rig.pages; ++i) {
    if (rig.PteAt(i).swapped()) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, rig.pages);

  // A hardware access to the swapped page traps to the userspace handler:
  // one fault, one swap-in, one extra eviction for headroom — and the
  // modeled charges to match (fault entry + dispatch, far read, far write).
  CpuContext ctx(rig.machine, 1);
  EXPECT_EQ(rig.as.ReadWordHw(ctx, rig.base + (victim << kPageShift)),
            kTag + victim);
  EXPECT_EQ(rig.tier().faults(), 1u);
  EXPECT_EQ(rig.tier().swapins(), 1u);
  EXPECT_EQ(rig.tier().evictions(), 7u);
  EXPECT_EQ(rig.tier().resident_pages(), 10u);
  EXPECT_TRUE(rig.PteAt(victim).present());
  const sim::CostProfile& cost = rig.machine.cost();
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kFault),
                   cost.fault_entry + cost.fault_dispatch);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kFarRead),
                   cost.far_read_per_byte * kPageSize);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kFarWrite),
                   cost.far_write_per_byte * kPageSize);
  ExpectBijection(rig);
}

TEST_P(TierConformance, SwapVaRelinksSwappedEntriesWithZeroFarTraffic) {
  // Two 8-page regions, half the pages demoted: the exchange must relink
  // every swapped PTE in place — no faults, no far-tier bytes, no slots
  // allocated or freed — while contents still travel with the vpn.
  TierRig rig(GetParam(), 16);
  rig.Enable(8);
  const std::uint64_t slots_before = rig.tier().used_slots();
  ASSERT_EQ(slots_before, 8u);

  CpuContext ctx(rig.machine, 0);
  const sim::vaddr_t region_b = rig.base + (8ull << kPageShift);
  ASSERT_EQ(rig.kernel.SysSwapVa(rig.as, ctx, rig.base, region_b, 8,
                                 sim::SwapVaOptions{}),
            sim::SysStatus::kOk);

  EXPECT_GT(rig.kernel.relinks_swapped(), 0u);
  EXPECT_EQ(rig.tier().faults(), 0u);
  EXPECT_EQ(rig.tier().swapins(), 0u);
  EXPECT_EQ(rig.tier().used_slots(), slots_before);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kFarRead), 0.0);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kFarWrite), 0.0);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kFault), 0.0);
  ExpectBijection(rig);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rig.Tag(i), kTag + 8 + i) << i;
    EXPECT_EQ(rig.Tag(8 + i), kTag + i) << i;
  }

  // Faulting a relinked page in afterwards must hand back the exchanged
  // contents — the slot index travelled with the PTE word.
  std::uint64_t swapped_page = rig.pages;
  for (std::uint64_t i = 0; i < rig.pages; ++i) {
    if (rig.PteAt(i).swapped()) {
      swapped_page = i;
      break;
    }
  }
  ASSERT_LT(swapped_page, rig.pages);
  const std::uint64_t expected_tag =
      swapped_page < 8 ? kTag + 8 + swapped_page : kTag + swapped_page - 8;
  CpuContext mutator(rig.machine, 1);
  EXPECT_EQ(
      rig.as.ReadWordHw(mutator, rig.base + (swapped_page << kPageShift)),
      expected_tag);
  EXPECT_EQ(rig.tier().faults(), 1u);
  ExpectBijection(rig);
}

TEST_P(TierConformance, ClockGivesTouchedPagesASecondChance) {
  TierRig rig(GetParam(), 8);
  rig.Enable(8);  // everything resident, no eviction yet
  // Reference pages 4..7 through the hardware path (sets the clock bit),
  // then shrink the limit: the four untouched pages must demote first,
  // whatever order the enable-time seed enumerated them in.
  CpuContext ctx(rig.machine, 0);
  for (std::uint64_t i = 4; i < 8; ++i) {
    EXPECT_EQ(rig.as.ReadWordHw(ctx, rig.base + (i << kPageShift)), kTag + i);
  }
  rig.kernel.SysSetResidencyLimit(rig.as, ctx, 4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(rig.PteAt(i).swapped()) << i;
    EXPECT_TRUE(rig.PteAt(i + 4).present()) << i + 4;
  }
  EXPECT_EQ(rig.tier().resident_pages(), 4u);
  ExpectBijection(rig);
}

TEST_P(TierConformance, MadviseColdDemotesSmallPagesAndSkipsHuge) {
  TierRig rig(GetParam(), 16, /*extra_frames=*/kPagesPerHuge + 8);
  const sim::vaddr_t huge_base = 1ULL << 33;
  rig.as.MapRangeHuge(huge_base, kHugePageSize);
  rig.Enable(kPagesPerHuge + 16);  // no pressure: demotion only via advice

  CpuContext ctx(rig.machine, 0);
  EXPECT_EQ(rig.kernel.SysMadviseCold(rig.as, ctx, rig.base,
                                      rig.pages << kPageShift),
            rig.pages);
  EXPECT_EQ(rig.tier().used_slots(), rig.pages);
  // Huge-mapped units never enter the tier: the hint is a no-op there and
  // the unit keeps its PMD leaf.
  EXPECT_EQ(rig.kernel.SysMadviseCold(rig.as, ctx, huge_base, kHugePageSize),
            0u);
  EXPECT_TRUE(
      rig.as.translation().LookupHuge(huge_base >> kPageShift).has_value());
  ExpectBijection(rig);
  for (std::uint64_t i = 0; i < rig.pages; ++i) {
    EXPECT_EQ(rig.Tag(i), kTag + i) << i;
  }
}

TEST_P(TierConformance, SwapSlotWriteLostAbortsEvictionAndRetries) {
  TierRig rig(GetParam(), 8);
  rig.Enable(8);
  verify::FaultInjector injector(/*seed=*/7);
  injector.Arm(FaultPoint::kSwapSlotWriteLost, {.first = 0});
  verify::ScopedInjection hook(rig.kernel, injector);

  // The first victim's far write is lost: that eviction aborts before the
  // PTE flips (the page stays resident, its slot returns to the free list)
  // and the scan picks another victim, so the limit is still reached.
  CpuContext ctx(rig.machine, 0);
  rig.kernel.SysSetResidencyLimit(rig.as, ctx, 7);
  EXPECT_EQ(injector.fires(FaultPoint::kSwapSlotWriteLost), 1u);
  EXPECT_EQ(rig.tier().evictions(), 1u);
  EXPECT_EQ(rig.tier().used_slots(), 1u);
  EXPECT_EQ(rig.tier().resident_pages(), 7u);
  EXPECT_EQ(rig.tier().far_bytes_written(), kPageSize);
  ExpectBijection(rig);
  for (std::uint64_t i = 0; i < rig.pages; ++i) {
    EXPECT_EQ(rig.Tag(i), kTag + i) << i;
  }
}

TEST_P(TierConformance, DoubleEvictOfStaleVictimIsDetectedAndSkipped) {
  TierRig rig(GetParam(), 8);
  rig.Enable(8);
  verify::FaultInjector injector(/*seed=*/7);
  injector.Arm(FaultPoint::kDoubleEvict, {.first = 0});
  verify::ScopedInjection hook(rig.kernel, injector);

  // The injection replays the just-evicted vpn as a stale victim; the tier
  // must detect the non-present PTE and skip (asserted inside the tier),
  // leaving exactly one eviction's worth of state behind.
  CpuContext ctx(rig.machine, 0);
  rig.kernel.SysSetResidencyLimit(rig.as, ctx, 7);
  EXPECT_EQ(injector.fires(FaultPoint::kDoubleEvict), 1u);
  EXPECT_EQ(rig.tier().evictions(), 1u);
  EXPECT_EQ(rig.tier().used_slots(), 1u);
  EXPECT_EQ(rig.tier().resident_pages(), 7u);
  ExpectBijection(rig);

  // Same hazard through the public API: demoting an already-swapped page is
  // a no-op, not a second slot.
  std::uint64_t swapped_page = rig.pages;
  for (std::uint64_t i = 0; i < rig.pages; ++i) {
    if (rig.PteAt(i).swapped()) swapped_page = i;
  }
  ASSERT_LT(swapped_page, rig.pages);
  EXPECT_FALSE(rig.tier().SwapOut(
      ctx, (rig.base >> kPageShift) + swapped_page, nullptr));
  EXPECT_EQ(rig.tier().used_slots(), 1u);
  ExpectBijection(rig);
}

TEST_P(TierConformance, HugeSplitOnSwapPathKeepsResidencyCoherent) {
  TierRig rig(GetParam(), 4, /*extra_frames=*/kPagesPerHuge + 8);
  const sim::vaddr_t huge_base = 1ULL << 33;
  rig.as.MapRangeHuge(huge_base, kHugePageSize);
  const sim::vaddr_t huge_page = huge_base + (37ull << kPageShift);
  rig.as.WriteWord(huge_page, kTag + 1000);
  rig.Enable(kPagesPerHuge + 16);
  ASSERT_EQ(rig.tier().resident_pages(), 4u);  // huge unit not tracked

  // A PTE-granularity swap into the huge unit demotes it (THP split): all
  // 512 pages become individually resident and the tier must learn that,
  // or the resident count diverges from the present-PTE count for good.
  CpuContext ctx(rig.machine, 0);
  ASSERT_EQ(rig.kernel.SysSwapVa(rig.as, ctx, huge_page, rig.base, 1,
                                 sim::SwapVaOptions{}),
            sim::SysStatus::kOk);
  EXPECT_EQ(rig.kernel.pmd_splits(), 1u);
  EXPECT_EQ(rig.tier().resident_pages(), kPagesPerHuge + 4);
  EXPECT_EQ(rig.Tag(0), kTag + 1000);
  EXPECT_EQ(rig.as.ReadWord(huge_page), kTag + 0);
  ExpectBijection(rig);

  // The split pages are now first-class tier citizens: pressure can demote
  // them, and the bijection holds across hundreds of evictions.
  rig.kernel.SysSetResidencyLimit(rig.as, ctx, 16);
  EXPECT_EQ(rig.tier().resident_pages(), 16u);
  EXPECT_EQ(rig.tier().used_slots(), kPagesPerHuge + 4 - 16);
  ExpectBijection(rig);
  EXPECT_EQ(rig.Tag(0), kTag + 1000);
  EXPECT_EQ(rig.as.ReadWord(huge_page), kTag + 0);
}

TEST_P(TierConformance, UnmapReleasesSlotsOfSwappedPages) {
  TierRig rig(GetParam(), 16);
  rig.Enable(10);
  ASSERT_EQ(rig.tier().used_slots(), 6u);
  rig.as.UnmapRange(rig.base, rig.pages << kPageShift);
  EXPECT_EQ(rig.tier().used_slots(), 0u);
  EXPECT_EQ(rig.tier().resident_pages(), 0u);
  EXPECT_EQ(rig.as.translation().mapped_pages(), 0u);
}

// --- GC integration: cold advice ---------------------------------------------

TEST(TierGcAdvice, DensePrefixAdviceDemotesColdPages) {
  workloads::RunConfig config;
  config.workload = "lrucache";
  config.collector = workloads::CollectorKind::kSvagc;
  config.machine_cores = 8;
  config.gc_threads = 4;
  config.far_residency = 0.6;
  config.verify_heap = true;
  const workloads::RunResult plain = workloads::RunWorkload(config);
  config.advise_cold_dense_prefix = true;
  const workloads::RunResult advised = workloads::RunWorkload(config);

  ASSERT_GT(plain.gc_count, 0u);
  EXPECT_GT(plain.tier_faults, 0u);
  EXPECT_GT(advised.tier_faults, 0u);
  EXPECT_GT(advised.tier_evictions, 0u);
  // The advice itself must have fired: the epilogue demotes the dense
  // prefix via SysMadviseCold and tallies the demoted pages. (Total
  // eviction counts are NOT comparable across the two runs — advising cold
  // pages out early *reduces* later demand evictions, and exact totals are
  // schedule-dependent under threaded GC workers.)
  EXPECT_GT(
      workloads::FindCounter(advised.gc_counters, "gc.advised_cold_pages"),
      0u);
}

// --- cross-backend differential sweep under overcommit -----------------------

// The same workload + forced GC cycle per backend, with half the heap demoted
// to the far tier: each backend's swap arm must match its own memmove arm
// (residency is never semantic) AND the two swap-arm digests must be
// identical to each other. The tier-residency invariant runs on all arms.
class TierDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(TierDifferential, OvercommitDigestsIdenticalAcrossBackends) {
  verify::OracleConfig config;
  config.workload = GetParam();
  config.swap_threshold_pages = 10;
  config.large_object_salt = 3;  // guarantee real SwapVA moves
  config.far_residency = 0.5;
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

INSTANTIATE_TEST_SUITE_P(Workloads, TierDifferential,
                         ::testing::Values("lrucache", "compress"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Residency sweep on one backend: the oracle must hold at light and heavy
// overcommit alike, and heavier overcommit must not leak slots (the
// invariant report covers the swap arm after its compared cycle).
TEST(TierOracle, ResidencySweepMatchesMemmoveArm) {
  for (const double residency : {0.9, 0.4}) {
    verify::OracleConfig config;
    config.workload = "bisort";
    config.swap_threshold_pages = 10;
    config.large_object_salt = 3;
    config.far_residency = residency;
    const verify::OracleResult result = verify::RunDifferentialOracle(config);
    EXPECT_TRUE(result.match) << residency << ": " << result.divergence;
    EXPECT_TRUE(result.invariants_swap.ok)
        << residency << ": " << result.invariants_swap.Describe();
    EXPECT_TRUE(result.invariants_copy.ok)
        << residency << ": " << result.invariants_copy.Describe();
  }
}

// --- overcommit soak (the overcommit_soak ctest leg) -------------------------

// End-to-end workload runs against a heap that does not fit in DRAM, with
// the full heap verifier on: mutator faults, GC-driven relinks, cold advice
// and demand evictions all mixed. SVAGC_SOAK_SCALE multiplies the rounds
// (nightly CI runs 10x).
TEST(TierSoak, OvercommitWorkloadSweep) {
  const std::uint64_t rounds = SoakScale();
  const struct {
    const char* workload;
    double residency;
  } cells[] = {
      {"lrucache", 0.5},
      {"compress", 0.7},
      {"bisort", 0.85},
  };
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (const auto& cell : cells) {
      workloads::RunConfig config;
      config.workload = cell.workload;
      config.collector = workloads::CollectorKind::kSvagc;
      config.machine_cores = 8;
      config.gc_threads = 4;
      config.far_residency = cell.residency;
      config.advise_cold_dense_prefix = (round % 2 == 0);
      config.heap_factor = (round % 2 == 0) ? 1.3 : 1.6;
      config.verify_heap = true;
      const workloads::RunResult result = workloads::RunWorkload(config);
      EXPECT_GT(result.gc_count, 0u) << cell.workload;
      EXPECT_GT(result.tier_faults + result.tier_evictions, 0u)
          << cell.workload << "@" << cell.residency;
    }
  }
}

}  // namespace
}  // namespace svagc
