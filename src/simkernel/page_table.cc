#include "simkernel/page_table.h"

namespace svagc::sim {

namespace {

// With a 48-bit VA split into vpn = bits [12,48), the leaf (PTE) index is the
// low 9 bits of the vpn and each successive level consumes 9 more bits.
std::uint64_t Index(std::uint64_t vpn, unsigned level) {
  return (vpn >> (level * kLevelBits)) & kIndexMask;
}
std::uint64_t PteIndex(std::uint64_t vpn) { return Index(vpn, 0); }

}  // namespace

PageTable::PageTable(telemetry::MetricsRegistry* metrics)
    : Translation(metrics), pgd_(std::make_unique<PgdTable>()) {}
PageTable::~PageTable() = default;

PmdEntry* PageTable::ResolvePmdEntry(std::uint64_t vpn, bool create) const {
  // vpn layout (low to high): [pte:9][pmd:9][pud:9][p4d:9][pgd:9].
  const std::uint64_t pmd_i = Index(vpn, 1);
  const std::uint64_t pud_i = Index(vpn, 2);
  const std::uint64_t p4d_i = Index(vpn, 3);
  const std::uint64_t pgd_i = Index(vpn, 4);

  auto& p4d_slot = pgd_->entries[pgd_i];
  if (!p4d_slot) {
    if (!create) return nullptr;
    p4d_slot = std::make_unique<P4dTable>();
  }
  auto& pud_slot = p4d_slot->entries[p4d_i];
  if (!pud_slot) {
    if (!create) return nullptr;
    pud_slot = std::make_unique<PudTable>();
  }
  auto& pmd_slot = pud_slot->entries[pud_i];
  if (!pmd_slot) {
    if (!create) return nullptr;
    pmd_slot = std::make_unique<PmdTable>();
  }
  return &pmd_slot->entries[pmd_i];
}

PteTable* PageTable::ResolveLeaf(std::uint64_t vpn, bool create) const {
  PmdEntry* entry = ResolvePmdEntry(vpn, create);
  if (entry == nullptr) return nullptr;
  PteTable* leaf = entry->leaf();
  if (leaf == nullptr) {
    // A huge-mapped unit has no PTE granularity until the leaf is split.
    if (!create) return nullptr;
    SVAGC_CHECK(!entry->huge.present());
    leaf = new PteTable();
    entry->table.store(leaf, std::memory_order_release);
  }
  return leaf;
}

void PageTable::Map(std::uint64_t vpn, frame_t frame) {
  PteTable* leaf = ResolveLeaf(vpn, /*create=*/true);
  Pte& pte = leaf->entries[PteIndex(vpn)];
  SVAGC_CHECK(!pte.present());
  pte = Pte::Make(frame);
  ++mapped_pages_;
}

frame_t PageTable::Unmap(std::uint64_t vpn) {
  PteTable* leaf = ResolveLeaf(vpn, /*create=*/false);
  SVAGC_CHECK(leaf != nullptr);
  Pte& pte = leaf->entries[PteIndex(vpn)];
  SVAGC_CHECK(pte.present() || pte.swapped());
  const frame_t frame = pte.present() ? pte.frame() : kInvalidFrame;
  pte = Pte::Empty();
  --mapped_pages_;
  return frame;
}

void PageTable::MapHuge(std::uint64_t vpn, frame_t base_frame) {
  SVAGC_CHECK((vpn & kIndexMask) == 0);
  PmdEntry* entry = ResolvePmdEntry(vpn, /*create=*/true);
  SVAGC_CHECK(entry->leaf() == nullptr && !entry->huge.present());
  entry->huge = Pte::Make(base_frame);
  mapped_pages_ += kPagesPerHuge;
}

frame_t PageTable::UnmapHuge(std::uint64_t vpn) {
  SVAGC_CHECK((vpn & kIndexMask) == 0);
  PmdEntry* entry = ResolvePmdEntry(vpn, /*create=*/false);
  SVAGC_CHECK(entry != nullptr && entry->huge.present());
  const frame_t base = entry->huge.frame();
  entry->huge = Pte::Empty();
  mapped_pages_ -= kPagesPerHuge;
  return base;
}

std::optional<frame_t> PageTable::LookupHuge(std::uint64_t vpn) const {
  const PmdEntry* entry = ResolvePmdEntry(vpn, /*create=*/false);
  if (entry == nullptr) return std::nullopt;
  const Pte huge = entry->huge_leaf();
  if (!huge.present()) return std::nullopt;
  return huge.frame();
}

std::optional<frame_t> PageTable::Lookup(std::uint64_t vpn) const {
  const PmdEntry* entry = ResolvePmdEntry(vpn, /*create=*/false);
  if (entry == nullptr) return std::nullopt;
  const Pte huge = entry->huge_leaf();
  if (huge.present()) return huge.frame() + PteIndex(vpn);
  const PteTable* leaf = entry->leaf();
  if (leaf == nullptr) return std::nullopt;
  const Pte pte = leaf->entries[PteIndex(vpn)];
  if (!pte.present()) return std::nullopt;
  return pte.frame();
}

Pte PageTable::LookupPte(std::uint64_t vpn) const {
  const PmdEntry* entry = ResolvePmdEntry(vpn, /*create=*/false);
  if (entry == nullptr) return Pte::Empty();
  const Pte huge = entry->huge_leaf();
  if (huge.present()) {
    // A huge-covered page is always resident; synthesize its slice.
    return Pte::Make(huge.frame() + PteIndex(vpn));
  }
  const PteTable* leaf = entry->leaf();
  if (leaf == nullptr) return Pte::Empty();
  return leaf->entries[PteIndex(vpn)].LoadAcquire();
}

Translation::PteRef PageTable::LeafSlotRaw(std::uint64_t vpn) {
  PteTable* leaf = ResolveLeaf(vpn, /*create=*/false);
  PteRef ref;
  if (leaf == nullptr) return ref;
  ref.slot = &leaf->entries[PteIndex(vpn)];
  ref.lock = &leaf->lock;
  return ref;
}

PmdEntry* PageTable::WalkToPmdEntry(std::uint64_t vpn, CycleAccount& acct,
                                    const CostProfile& cost,
                                    PmdCache* cache) const {
  const std::uint64_t tag = vpn >> kLevelBits;
  if (cache != nullptr && cache->tag == tag) {
    // PMD cache hit: skip the four directory accesses (Fig. 7 step 1).
    ++cache->hits;
    return cache->entry;
  }
  // pgd_offset / p4d_offset / pud_offset / pmd_offset: four directory
  // memory accesses.
  acct.Charge(CostKind::kPageWalk, 4 * cost.pagetable_access);
  ctr_walks_->Add();
  PmdEntry* entry = ResolvePmdEntry(vpn, /*create=*/false);
  SVAGC_CHECK(entry != nullptr);
  if (cache != nullptr) {
    ++cache->misses;
    cache->tag = tag;
    cache->entry = entry;
  }
  return entry;
}

PteTable* PageTable::WalkToLeaf(std::uint64_t vpn, CycleAccount& acct,
                                const CostProfile& cost,
                                PmdCache* cache) const {
  PteTable* leaf = WalkToPmdEntry(vpn, acct, cost, cache)->leaf();
  // PTE-granularity callers must have split any huge leaf beforehand.
  SVAGC_CHECK(leaf != nullptr);
  return leaf;
}

PteTable* PageTable::SplitHugeEntry(PmdEntry& entry) {
  SVAGC_CHECK(entry.huge.present() && entry.leaf() == nullptr);
  const frame_t base = entry.huge.frame();
  auto* leaf = new PteTable();
  for (std::uint64_t i = 0; i < kEntriesPerTable; ++i) {
    leaf->entries[i] = Pte::Make(base + i);
  }
  // Publish the filled table before clearing the huge word (see PmdEntry).
  entry.table.store(leaf, std::memory_order_release);
  entry.huge.StoreRelease(Pte::Empty());
  return leaf;
}

Pte* PageTable::GetPteLocked(std::uint64_t vpn, SpinLock** ptlp,
                             CycleAccount& acct, const CostProfile& cost,
                             PmdCache* cache) {
  PteTable* leaf = WalkToLeaf(vpn, acct, cost, cache);
  // pte_offset_map_lock: leaf access + split-PTL acquire.
  acct.Charge(CostKind::kPageWalk, cost.pte_access);
  acct.Charge(CostKind::kPteLock, cost.pte_lock_pair);
  leaf->lock.lock();
  *ptlp = &leaf->lock;
  return &leaf->entries[PteIndex(vpn)];
}

Pte* PageTable::GetPteRaw(std::uint64_t vpn) const {
  PteTable* leaf = ResolveLeaf(vpn, /*create=*/false);
  if (leaf == nullptr) return nullptr;
  return &leaf->entries[PteIndex(vpn)];
}

std::optional<frame_t> PageTable::HardwareWalk(std::uint64_t vpn,
                                               CycleAccount& acct,
                                               const CostProfile& cost,
                                               HugeTranslation* huge) {
  acct.Charge(CostKind::kTlbRefill, cost.tlb_refill);
  ctr_walks_->Add();
  const PmdEntry* entry = ResolvePmdEntry(vpn, /*create=*/false);
  if (entry == nullptr) return std::nullopt;
  const Pte huge_leaf = entry->huge_leaf();
  if (huge_leaf.present()) {
    if (huge != nullptr) {
      huge->huge = true;
      huge->unit_base_frame = huge_leaf.frame();
    }
    return huge_leaf.frame() + PteIndex(vpn);
  }
  const PteTable* leaf = entry->leaf();
  if (leaf == nullptr) return std::nullopt;
  const Pte pte = leaf->entries[PteIndex(vpn)];
  if (!pte.present()) return std::nullopt;
  return pte.frame();
}

Translation::PteRef PageTable::LeafForPteSwap(std::uint64_t vpn,
                                              CycleAccount& acct,
                                              const CostProfile& cost,
                                              PmdCache* cache) {
  PmdEntry* entry = WalkToPmdEntry(vpn, acct, cost, cache);
  PteRef ref;
  // Huge word first, table second, both with acquire (see PmdEntry): an
  // entry seen with no huge leaf and a table needs no split, and its table
  // is complete, so the common case takes only the leaf's own split PTL.
  PteTable* leaf = nullptr;
  if (!entry->huge_leaf().present()) leaf = entry->leaf();
  if (leaf == nullptr) {
    // The demotion re-check and the split run under one lock: two swappers
    // resolving pages of the same unit must not both split the leaf (the
    // loser reuses the winner's PteTable, and only the winner reports
    // split_huge, so the kernel charges the 512 entry writes once). The THP
    // split: the kernel charges those writes after return, which keeps the
    // charge order (walk, then split) of the pre-interface code.
    split_lock_.lock();
    if (entry->huge.present()) {
      SplitHugeEntry(*entry);
      ref.split_huge = true;
    }
    leaf = entry->leaf();
    split_lock_.unlock();
    SVAGC_CHECK(leaf != nullptr);
  }
  ref.slot = &leaf->entries[PteIndex(vpn)];
  ref.lock = &leaf->lock;
  return ref;
}

bool PageTable::CanExchangeUnits(std::uint64_t unit_vpn_a,
                                 std::uint64_t unit_vpn_b,
                                 std::uint64_t units) const {
  (void)unit_vpn_a;
  (void)unit_vpn_b;
  (void)units;
  return true;
}

void PageTable::ExchangeUnits(std::uint64_t unit_vpn_a,
                              std::uint64_t unit_vpn_b, CycleAccount& acct,
                              const CostProfile& cost, PmdCache* cache_a,
                              PmdCache* cache_b) {
  PmdEntry* ea = WalkToPmdEntry(unit_vpn_a, acct, cost, cache_a);
  PmdEntry* eb = WalkToPmdEntry(unit_vpn_b, acct, cost, cache_b);
  // The whole PMD slot exchanges: leaf-table pointer and huge leaf together,
  // whatever mix the two units carry. PteTable objects (locks included)
  // travel with their entries, so concurrent PTE locking stays coherent.
  PteTable* const leaf_a = ea->leaf();
  ea->table.store(eb->leaf(), std::memory_order_release);
  eb->table.store(leaf_a, std::memory_order_release);
  std::swap(ea->huge, eb->huge);
}

Pte* PageTable::HugeEntryForSwap(std::uint64_t unit_vpn, CycleAccount& acct,
                                 const CostProfile& cost, PmdCache* cache) {
  PmdEntry* entry = WalkToPmdEntry(unit_vpn, acct, cost, cache);
  // All-huge pre-scan guarantees this; with no PteTable present, rotating
  // only the huge values is the whole exchange.
  SVAGC_CHECK(entry->huge.present() && entry->leaf() == nullptr);
  return &entry->huge;
}

namespace {

template <typename F>
void ForEachPmdEntry(const PgdTable& pgd, F&& f) {
  for (const auto& p4d : pgd.entries) {
    if (!p4d) continue;
    for (const auto& pud : p4d->entries) {
      if (!pud) continue;
      for (const auto& pmd : pud->entries) {
        if (!pmd) continue;
        for (const PmdEntry& entry : pmd->entries) f(entry);
      }
    }
  }
}

}  // namespace

void PageTable::VisitSmallPages(
    const std::function<void(std::uint64_t, Pte)>& fn) const {
  for (std::uint64_t pgd_i = 0; pgd_i < kEntriesPerTable; ++pgd_i) {
    const auto& p4d = pgd_->entries[pgd_i];
    if (!p4d) continue;
    for (std::uint64_t p4d_i = 0; p4d_i < kEntriesPerTable; ++p4d_i) {
      const auto& pud = p4d->entries[p4d_i];
      if (!pud) continue;
      for (std::uint64_t pud_i = 0; pud_i < kEntriesPerTable; ++pud_i) {
        const auto& pmd = pud->entries[pud_i];
        if (!pmd) continue;
        for (std::uint64_t pmd_i = 0; pmd_i < kEntriesPerTable; ++pmd_i) {
          const PteTable* leaf = pmd->entries[pmd_i].leaf();
          if (leaf == nullptr) continue;  // unpopulated or huge-mapped: skip
          const std::uint64_t unit_vpn =
              (((pgd_i * kEntriesPerTable + p4d_i) * kEntriesPerTable +
                pud_i) *
                   kEntriesPerTable +
               pmd_i)
              << kLevelBits;
          for (std::uint64_t i = 0; i < kEntriesPerTable; ++i) {
            const Pte pte = leaf->entries[i];
            if (pte.value != 0) fn(unit_vpn + i, pte);
          }
        }
      }
    }
  }
}

std::uint64_t PageTable::CountAliasedPmdEntries() const {
  std::uint64_t aliased = 0;
  ForEachPmdEntry(*pgd_, [&](const PmdEntry& entry) {
    if (entry.leaf() != nullptr && entry.huge.present()) ++aliased;
  });
  return aliased;
}

std::uint64_t PageTable::CountHugeLeaves() const {
  std::uint64_t leaves = 0;
  ForEachPmdEntry(*pgd_, [&](const PmdEntry& entry) {
    if (entry.huge.present()) ++leaves;
  });
  return leaves;
}

}  // namespace svagc::sim
