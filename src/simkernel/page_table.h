// Four-level x86-64-style page table with Linux-like split PTE locks — the
// radix Translation backend.
//
// The radix tree is real: walks touch real directory memory, so PMD caching
// eliminates real work in addition to modeled cycles. Leaf tables carry one
// spinlock each (Linux's split page-table locks); Algorithm 1's
// pte_offset_map_lock / pte_unmap_unlock pairing is preserved in
// GetPteLocked / UnlockPte.
//
// PMD entries are real leaves too: an entry either points at a PteTable or
// is a 2 MiB huge leaf mapping kPagesPerHuge contiguous frames (never both —
// the CheckHugeMappingConsistency invariant). Huge leaves can be demoted to
// a PteTable (a THP-style split) when a swap needs PTE granularity.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "simkernel/config.h"
#include "simkernel/cost_model.h"
#include "simkernel/translation.h"
#include "support/check.h"
#include "support/spin_lock.h"

namespace svagc::sim {

struct PteTable {
  SpinLock lock;  // split page-table lock, one per leaf table
  std::array<Pte, kEntriesPerTable> entries{};
};

// One PMD slot: either a pointer to a PteTable (4 KiB mappings) or a huge
// leaf whose frame() is the base of kPagesPerHuge physically-contiguous
// frames (vpn i inside the unit resolves to huge.frame() + (i & kIndexMask)).
// Exactly one of {table, huge.present()} may be set; both at once is the
// aliasing bug CheckHugeMappingConsistency exists to catch.
//
// Lockless lookups (AddressSpace::RawPtr during parallel compaction, and
// LeafForPteSwap's resolution of an entry with no huge leaf) race
// SplitHugeEntry, which demotes a huge leaf under the page table's split
// lock. The split fills the new table, publishes it with a release store,
// and only then clears the huge word with another; the lockless readers
// load the huge word first and the table second, both with acquire. A
// reader that still sees the huge leaf resolves through it (the split maps
// the same frames); one that sees it cleared finds the complete table.
struct PmdEntry {
  PmdEntry() = default;
  PmdEntry(const PmdEntry&) = delete;
  PmdEntry& operator=(const PmdEntry&) = delete;
  ~PmdEntry() { delete table.load(std::memory_order_relaxed); }

  PteTable* leaf() const { return table.load(std::memory_order_acquire); }
  Pte huge_leaf() const { return huge.LoadAcquire(); }

  std::atomic<PteTable*> table{nullptr};  // owned
  Pte huge = Pte::Empty();
};

struct PmdTable {
  std::array<PmdEntry, kEntriesPerTable> entries;
};
struct PudTable {
  std::array<std::unique_ptr<PmdTable>, kEntriesPerTable> entries;
};
struct P4dTable {
  std::array<std::unique_ptr<PudTable>, kEntriesPerTable> entries;
};
struct PgdTable {
  std::array<std::unique_ptr<P4dTable>, kEntriesPerTable> entries;
};

class PageTable final : public Translation {
 public:
  explicit PageTable(telemetry::MetricsRegistry* metrics = nullptr);
  ~PageTable() override;

  TranslationBackend backend() const override {
    return TranslationBackend::kRadix;
  }

  // Establishes vpn -> frame. Creates intermediate tables on demand.
  void Map(std::uint64_t vpn, frame_t frame) override;

  // Removes the mapping; returns the previously mapped frame, or
  // kInvalidFrame when the page was swapped out (the caller frees the swap
  // slot instead of a frame).
  frame_t Unmap(std::uint64_t vpn) override;

  // Establishes a 2 MiB huge leaf. The unit must have neither a PteTable nor
  // an existing huge leaf.
  void MapHuge(std::uint64_t vpn, frame_t base_frame) override;

  frame_t UnmapHuge(std::uint64_t vpn) override;

  std::optional<frame_t> LookupHuge(std::uint64_t vpn) const override;

  // Read-only lookup used by the TLB-refill path. Resolves through both
  // PteTable leaves and huge leaves.
  std::optional<frame_t> Lookup(std::uint64_t vpn) const override;

  std::uint64_t mapped_pages() const override { return mapped_pages_; }

  Pte LookupPte(std::uint64_t vpn) const override;
  void VisitSmallPages(
      const std::function<void(std::uint64_t, Pte)>& fn) const override;
  PteRef LeafSlotRaw(std::uint64_t vpn) override;

  // Algorithm 1's GETPTE: walks the tree charging modeled cycles, locks the
  // leaf table and returns the PTE slot. `cache`, when non-null, implements
  // PMD caching. Caller must pass the returned lock to UnlockPte.
  Pte* GetPteLocked(std::uint64_t vpn, SpinLock** ptlp, CycleAccount& acct,
                    const CostProfile& cost, PmdCache* cache);

  // Directory walk only (charging costs, honoring the PMD cache); returns
  // the leaf table without taking its lock. SwapVA locks the two PTEs of a
  // pair deadlock-free through OrderLeafLocks (translation.h), the
  // equivalent of Linux checking ptl1 == ptl2 before double-locking.
  // Aborts if the unit is huge-mapped — PTE-granularity callers must split
  // first (see SplitHugeEntry).
  PteTable* WalkToLeaf(std::uint64_t vpn, CycleAccount& acct,
                       const CostProfile& cost, PmdCache* cache) const;

  // Costed directory walk that stops at the PMD entry itself — the unit of
  // huge-entry swapping. Honors the PMD cache exactly like WalkToLeaf.
  PmdEntry* WalkToPmdEntry(std::uint64_t vpn, CycleAccount& acct,
                           const CostProfile& cost, PmdCache* cache) const;

  // THP-style demotion: replaces a huge leaf with a PteTable whose 512 PTEs
  // map base+0 .. base+511. Uncosted — the kernel charges the entry writes.
  // Returns the new leaf table.
  static PteTable* SplitHugeEntry(PmdEntry& entry);

  // pte_unmap_unlock.
  static void UnlockPte(SpinLock* ptlp) { ptlp->unlock(); }

  // Uncosted variant for kernel-internal bookkeeping and tests. Returns
  // nullptr when the unit has no PteTable (unpopulated or huge-mapped).
  Pte* GetPteRaw(std::uint64_t vpn) const;

  // Walks the tree without locking, charging only walk costs — models the
  // hardware walker on a TLB miss. `huge`, when non-null, reports whether
  // the translation came from a huge leaf.
  std::optional<frame_t> HardwareWalk(std::uint64_t vpn, CycleAccount& acct,
                                      const CostProfile& cost,
                                      HugeTranslation* huge = nullptr) override;

  PteRef LeafForPteSwap(std::uint64_t vpn, CycleAccount& acct,
                        const CostProfile& cost, PmdCache* cache) override;

  // PMD slots exchange wholesale no matter how the unit is populated (table
  // pointer and huge leaf swap together), so the fast path never declines.
  bool CanExchangeUnits(std::uint64_t unit_vpn_a, std::uint64_t unit_vpn_b,
                        std::uint64_t units) const override;
  void ExchangeUnits(std::uint64_t unit_vpn_a, std::uint64_t unit_vpn_b,
                     CycleAccount& acct, const CostProfile& cost,
                     PmdCache* cache_a, PmdCache* cache_b) override;
  Pte* HugeEntryForSwap(std::uint64_t unit_vpn, CycleAccount& acct,
                        const CostProfile& cost, PmdCache* cache) override;

  // Verification walks over every populated PMD entry (uncosted).
  // CountAliasedPmdEntries returns the number of entries carrying BOTH a
  // PteTable and a huge leaf — any non-zero count is the aliasing corruption
  // the CheckHugeMappingConsistency invariant exists to catch.
  std::uint64_t CountAliasedPmdEntries() const;
  std::uint64_t CountAliasedUnits() const override {
    return CountAliasedPmdEntries();
  }
  // Number of present 2 MiB huge leaves.
  std::uint64_t CountHugeLeaves() const override;

 private:
  PmdEntry* ResolvePmdEntry(std::uint64_t vpn, bool create) const;
  PteTable* ResolveLeaf(std::uint64_t vpn, bool create) const;

  std::unique_ptr<PgdTable> pgd_;
  std::uint64_t mapped_pages_ = 0;
  // Serializes THP demotions in LeafForPteSwap: two swappers hitting pages
  // of the same huge unit race to split it, and the PMD entry has no lock of
  // its own (the split PTL lives in the PteTable the split creates). Taken
  // only for entries that show a huge leaf or no table.
  SpinLock split_lock_;
};

}  // namespace svagc::sim
