// Translation backends: the interface SwapVA, the TLB-refill path and the
// verifier speak instead of a concrete page-table type.
//
// The simulation originally hard-wired the 4-level radix PageTable. The
// structure that maps vpn -> frame is a first-class performance axis for
// SVAGC, though: a SwapVA through a radix tree pays a directory walk per
// leaf touched, while an inverted/hashed table resolves the two leaf entries
// in O(1) bucket probes and the swap becomes a pair of bucket-entry writes
// ("relinks"). This header defines the backend-neutral contract:
//
//   * map/unmap/lookup            — mmap-time mapping plus uncosted reads
//   * HardwareWalk                — the TLB-refill path (hashed backends
//                                   model a software-TLB fill trap)
//   * LeafForPteSwap              — Algorithm 1's GETPTE: resolve the PTE
//                                   slot + the lock guarding it, demoting a
//                                   huge leaf if one covers the page
//   * CanExchangeUnits/
//     ExchangeUnits               — the 2 MiB fast path: exchange whole
//                                   units with one entry write each
//   * HugeEntryForSwap            — Algorithm 2's all-huge rotation: the
//                                   huge leaf value as a rotatable slot
//   * CountAliasedUnits/
//     CountHugeLeaves             — uncosted verification snapshots
//
// Every backend reports into the kernel.translation.* counters (walks,
// probes, relinks, swtlb_fills); which of them move is the backend's
// signature. Backends are selected per-Machine (TranslationBackend) and
// instantiated per-AddressSpace by MakeTranslation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "simkernel/config.h"
#include "simkernel/cost_model.h"
#include "support/check.h"
#include "support/spin_lock.h"
#include "telemetry/metrics.h"

namespace svagc::sim {

// A PTE packs (frame << 1) | present. Frame numbers in this simulation are
// indices into PhysicalMemory, not physical addresses, so no flag bits
// beyond `present` are needed. Both backends store the same leaf word, which
// is what lets the kernel swap values without knowing the container.
//
// Far-tier extension (SUSTechOS-style swap encoding): a non-present entry
// whose low two bits are 0b10 is *swapped* — the page's contents live in
// far-tier swap slot (value >> 2). Empty stays all-zero, so the three
// states are disjoint:
//   value == 0            empty (never mapped / unmapped)
//   value & 1             present, frame = value >> 1
//   (value & 3) == 2      swapped, slot = value >> 2
// Because both backends store this one leaf word, SwapVA can exchange a
// swapped entry with any other entry — the slot index travels with the
// virtual page, no far-tier copy needed.
struct Pte {
  std::uint64_t value = 0;

  bool present() const { return value & 1; }
  frame_t frame() const {
    SVAGC_DCHECK(present());
    return value >> 1;
  }
  bool swapped() const { return (value & 3) == 2; }
  std::uint64_t swap_slot() const {
    SVAGC_DCHECK(swapped());
    return value >> 2;
  }
  static Pte Make(frame_t frame) { return Pte{(frame << 1) | 1}; }
  static Pte MakeSwapped(std::uint64_t slot) { return Pte{(slot << 2) | 2}; }
  static Pte Empty() { return Pte{0}; }
};

struct PmdEntry;  // radix-backend detail (page_table.h); cached by pointer

// Caches the PMD entry resolved for the previous page so sequential swaps
// skip the PGD->P4D->PUD->PMD part of the walk (paper §III-B, Fig. 7). The
// entry pointer is stable (it lives inside the PmdTable array), so the cache
// survives huge-leaf splits that happen under the same tag. Radix-only: the
// hashed backend has no directory walk to cache and ignores it.
struct PmdCache {
  std::uint64_t tag = ~0ULL;  // vpn >> kLevelBits (2 MiB granule)
  PmdEntry* entry = nullptr;

  // Effectiveness tally (a hit saves four directory accesses); the radix
  // walk bumps these and the kernel drains them into "pmd.hits"/"pmd.misses".
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  void Invalidate() {
    tag = ~0ULL;
    entry = nullptr;
  }
};

enum class TranslationBackend {
  kRadix,   // 4-level x86-64-style radix tree with split PTE locks
  kHashed,  // inverted/hashed table keyed on (asid-seeded) vpn + SW TLB
};

const char* TranslationBackendName(TranslationBackend backend);

// The two-leaf lock order of Algorithm 1: same-leaf pairs collapse to one
// lock, cross-leaf pairs are taken in address order. Deadlock freedom
// requires every swap path of every backend to acquire through this helper,
// so the ordering invariant is asserted here rather than documented at each
// call site.
struct OrderedLockPair {
  SpinLock* first = nullptr;
  SpinLock* second = nullptr;  // nullptr when both slots share one lock
};

inline OrderedLockPair OrderLeafLocks(SpinLock* a, SpinLock* b) {
  SVAGC_DCHECK(a != nullptr && b != nullptr);
  OrderedLockPair pair{a, b};
  if (a == b) {
    pair.second = nullptr;
  } else if (b < a) {
    pair.first = b;
    pair.second = a;
  }
  // The deadlock-freedom invariant itself: a second lock, when present, is
  // strictly after the first, so concurrent swappers cannot cycle.
  SVAGC_DCHECK(pair.second == nullptr || pair.first < pair.second);
  return pair;
}

class Translation {
 public:
  Translation(const Translation&) = delete;
  Translation& operator=(const Translation&) = delete;
  virtual ~Translation();

  virtual TranslationBackend backend() const = 0;

  // --- Mapping (mmap-time; not thread-safe against other Map/Unmap calls,
  // like mmap under mmap_lock) -----------------------------------------------

  // Establishes vpn -> frame.
  virtual void Map(std::uint64_t vpn, frame_t frame) = 0;
  // Removes the mapping; returns the previously mapped frame.
  virtual frame_t Unmap(std::uint64_t vpn) = 0;
  // Establishes a 2 MiB huge leaf: vpn must be kPagesPerHuge-aligned and
  // base_frame the first of kPagesPerHuge contiguous frames.
  virtual void MapHuge(std::uint64_t vpn, frame_t base_frame) = 0;
  // Removes a huge leaf (the unit must currently be huge-mapped); returns
  // the base frame. Units that have since been split must be torn down with
  // per-page Unmap instead.
  virtual frame_t UnmapHuge(std::uint64_t vpn) = 0;

  // --- Uncosted reads --------------------------------------------------------

  // Base frame of the huge leaf covering vpn, or nullopt when the unit is
  // not huge-mapped (unpopulated or split to 4 KiB granularity).
  virtual std::optional<frame_t> LookupHuge(std::uint64_t vpn) const = 0;
  // Read-only lookup resolving through both granularities; nullopt when the
  // page is not present (including swapped-out pages). Thread-safe against
  // concurrent leaf *value* updates (the swap paths) because leaf storage is
  // never freed while mapped.
  virtual std::optional<frame_t> Lookup(std::uint64_t vpn) const = 0;
  // Raw leaf word for vpn: present, swapped, or Empty() when unpopulated.
  // Pages covered by a huge leaf report a synthesized present entry for
  // their slice of the unit (huge units never enter the far tier). Uncosted;
  // the fault path and the tier invariants read residency through this.
  virtual Pte LookupPte(std::uint64_t vpn) const = 0;
  virtual std::uint64_t mapped_pages() const = 0;
  // Visits every populated 4 KiB-granularity leaf entry (present or
  // swapped), skipping huge-mapped units. Enumeration order is
  // deterministic per backend but unspecified across backends; callers that
  // need cross-backend determinism must sort. Uncosted; used to seed the
  // far tier's residency clock and by the tier-residency invariant.
  virtual void VisitSmallPages(
      const std::function<void(std::uint64_t vpn, Pte pte)>& fn) const = 0;

  // --- TLB refill ------------------------------------------------------------

  // Result detail for HardwareWalk: set when the translation resolved
  // through a huge leaf, so the TLB can install a 2 MiB-reach entry.
  struct HugeTranslation {
    bool huge = false;
    frame_t unit_base_frame = kInvalidFrame;
  };

  // Resolves a translation on a TLB miss, charging refill costs: the radix
  // backend models the hardware walker, the hashed backend a software-TLB
  // fill trap plus its bucket probes.
  virtual std::optional<frame_t> HardwareWalk(
      std::uint64_t vpn, CycleAccount& acct, const CostProfile& cost,
      HugeTranslation* huge = nullptr) = 0;

  // --- SwapVA leaf access ----------------------------------------------------

  // A resolved leaf slot: the PTE word to exchange plus the lock guarding
  // it (the radix split-PTL or the hashed bucket's stripe lock). The caller
  // locks via OrderLeafLocks; `split_huge` reports that a huge leaf was
  // demoted on the way (the kernel charges the 512 entry writes and bumps
  // swapva.pmd_splits, identically across backends).
  struct PteRef {
    Pte* slot = nullptr;
    SpinLock* lock = nullptr;
    bool split_huge = false;
  };

  // Algorithm 1's GETPTE at 4 KiB granularity, charging translation costs
  // (radix: the costed directory walk, honoring `cache`; hashed: bucket
  // probes, `cache` ignored). Demotes a covering huge leaf first.
  virtual PteRef LeafForPteSwap(std::uint64_t vpn, CycleAccount& acct,
                                const CostProfile& cost, PmdCache* cache) = 0;

  // Uncosted resolution of a 4 KiB leaf slot plus its guarding lock, for the
  // far-tier fault/eviction paths (which charge the tier's own fault/copy
  // constants rather than per-structure access costs). Never splits a huge
  // leaf: returns {nullptr, nullptr} when the page has no 4 KiB-granularity
  // entry (unpopulated or huge-mapped — huge units never enter the far
  // tier). The caller flips present<->swapped under the returned lock, which
  // is the same lock the SwapVA paths hold while exchanging leaf words.
  virtual PteRef LeafSlotRaw(std::uint64_t vpn) = 0;

  // --- 2 MiB-unit swapping ---------------------------------------------------

  // Whether `units` consecutive 2 MiB units starting at the two unit-aligned
  // vpns can be exchanged wholesale. The radix backend exchanges PMD slots
  // regardless of how the unit is populated; the hashed backend can only
  // relink huge-class entries, so every unit on both sides must be
  // huge-mapped. Uncosted pre-scan (like the rotation's all-huge check).
  virtual bool CanExchangeUnits(std::uint64_t unit_vpn_a,
                                std::uint64_t unit_vpn_b,
                                std::uint64_t units) const = 0;

  // Exchanges one 2 MiB unit pair, charging only the per-side resolution
  // costs (the kernel charges the entry accesses, lock and entry write).
  // Involutive: re-applying restores the original mappings, which is what
  // the huge-swap fault rollback relies on.
  virtual void ExchangeUnits(std::uint64_t unit_vpn_a, std::uint64_t unit_vpn_b,
                             CycleAccount& acct, const CostProfile& cost,
                             PmdCache* cache_a, PmdCache* cache_b) = 0;

  // The huge leaf of a unit as a rotatable slot for Algorithm 2's all-huge
  // PMD rotation. The caller guarantees (by pre-scan) that the unit is
  // huge-mapped; aborts otherwise. Charges per-side resolution costs.
  virtual Pte* HugeEntryForSwap(std::uint64_t unit_vpn, CycleAccount& acct,
                                const CostProfile& cost, PmdCache* cache) = 0;

  // --- Verification (uncosted) -----------------------------------------------

  // Number of 2 MiB units carrying BOTH 4 KiB mappings and a huge leaf —
  // any non-zero count is the aliasing corruption the
  // CheckHugeMappingConsistency invariant exists to catch.
  virtual std::uint64_t CountAliasedUnits() const = 0;
  // Number of present 2 MiB huge leaves.
  virtual std::uint64_t CountHugeLeaves() const = 0;

 protected:
  // Wires the kernel.translation.* counters into `metrics` when provided;
  // tables constructed standalone (unit tests) fall back to private
  // instruments so hot paths never branch on registration.
  explicit Translation(telemetry::MetricsRegistry* metrics);

  telemetry::Counter* ctr_walks_;        // radix: uncached directory walks
  telemetry::Counter* ctr_probes_;       // hashed: bucket hops, 1 per node
  telemetry::Counter* ctr_relinks_;      // hashed: O(1) swap-slot resolutions
  telemetry::Counter* ctr_swtlb_fills_;  // hashed: software-TLB fill traps

 private:
  struct FallbackCounters {
    telemetry::Counter walks, probes, relinks, swtlb_fills;
  };
  std::unique_ptr<FallbackCounters> fallback_;
};

// Factory for the per-Machine backend choice. `asid` seeds the hashed
// backend's bucket hash so distinct address spaces shear differently;
// `metrics` (usually the machine registry) receives the counters.
std::unique_ptr<Translation> MakeTranslation(
    TranslationBackend backend, std::uint64_t asid,
    telemetry::MetricsRegistry* metrics);

}  // namespace svagc::sim
