#include "simkernel/hashed_page_table.h"

#include <unordered_set>

namespace svagc::sim {

namespace {

std::uint64_t UnitOf(std::uint64_t vpn) { return vpn >> kLevelBits; }

}  // namespace

HashedPageTable::HashedPageTable(std::uint64_t asid,
                                 telemetry::MetricsRegistry* metrics)
    : Translation(metrics),
      // golden-ratio spread so asid 0 and 1 already shear differently
      seed_(0x9e3779b97f4a7c15ULL * (asid + 1)),
      page_buckets_(kInitialBuckets, nullptr),
      huge_buckets_(kInitialBuckets, nullptr) {}

HashedPageTable::~HashedPageTable() {
  auto drain = [](std::vector<Node*>& buckets) {
    for (Node* head : buckets) {
      while (head != nullptr) {
        Node* next = head->next;
        delete head;
        head = next;
      }
    }
  };
  drain(page_buckets_);
  drain(huge_buckets_);
  for (Node* node : retired_) delete node;
}

std::uint64_t HashedPageTable::HashKey(std::uint64_t key) const {
  // splitmix64 finalizer over the asid-seeded key: full-avalanche mixing so
  // sequential vpns spread instead of chaining into one bucket run.
  std::uint64_t x = key + seed_;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

HashedPageTable::Node* HashedPageTable::FindCosted(
    const std::vector<Node*>& buckets, std::uint64_t key, CycleAccount& acct,
    const CostProfile& cost) {
  const std::size_t bucket = HashKey(key) & (buckets.size() - 1);
  SpinLock& lock = StripeFor(bucket);
  lock.lock();
  std::uint64_t hops = 1;  // the bucket-head load itself
  Node* node = buckets[bucket];
  while (node != nullptr && node->key != key) {
    node = node->next;
    ++hops;
  }
  lock.unlock();
  acct.Charge(CostKind::kPageWalk, static_cast<double>(hops) * cost.hash_probe);
  ctr_probes_->Add(hops);
  return node;
}

HashedPageTable::Node* HashedPageTable::Find(const std::vector<Node*>& buckets,
                                             std::uint64_t key) const {
  const std::size_t bucket = HashKey(key) & (buckets.size() - 1);
  SpinLock& lock = StripeFor(bucket);
  lock.lock();
  Node* node = buckets[bucket];
  while (node != nullptr && node->key != key) node = node->next;
  lock.unlock();
  return node;
}

HashedPageTable::Node* HashedPageTable::Insert(std::vector<Node*>& buckets,
                                               std::uint64_t key, Pte pte) {
  const std::size_t bucket = HashKey(key) & (buckets.size() - 1);
  Node* node = new Node{key, pte, nullptr};
  SpinLock& lock = StripeFor(bucket);
  lock.lock();
  node->next = buckets[bucket];
  buckets[bucket] = node;
  lock.unlock();
  return node;
}

HashedPageTable::Node* HashedPageTable::Remove(std::vector<Node*>& buckets,
                                               std::uint64_t key) {
  const std::size_t bucket = HashKey(key) & (buckets.size() - 1);
  SpinLock& lock = StripeFor(bucket);
  lock.lock();
  Node** link = &buckets[bucket];
  while (*link != nullptr && (*link)->key != key) link = &(*link)->next;
  Node* node = *link;
  if (node != nullptr) *link = node->next;
  lock.unlock();
  return node;
}

void HashedPageTable::GrowToFit(std::vector<Node*>& buckets,
                                std::uint64_t entries) {
  std::size_t want = buckets.size();
  while (entries * 4 > want * 3) want *= 2;
  if (want == buckets.size()) return;
  // Map-time only (mmap_lock semantics): no swap or fill is concurrent, so
  // the relink can proceed without stripe locks.
  std::vector<Node*> fresh(want, nullptr);
  for (Node* head : buckets) {
    while (head != nullptr) {
      Node* next = head->next;
      const std::size_t bucket = HashKey(head->key) & (want - 1);
      head->next = fresh[bucket];
      fresh[bucket] = head;
      head = next;
    }
  }
  buckets.swap(fresh);
}

void HashedPageTable::Map(std::uint64_t vpn, frame_t frame) {
  SVAGC_CHECK(Find(page_buckets_, vpn) == nullptr);
  SVAGC_CHECK(Find(huge_buckets_, UnitOf(vpn)) == nullptr);
  // Provision the page class for the full mapped reach (huge units
  // included), so splits never need a swap-phase resize.
  GrowToFit(page_buckets_, mapped_pages_ + 1);
  Insert(page_buckets_, vpn, Pte::Make(frame));
  ++page_nodes_;
  ++mapped_pages_;
}

frame_t HashedPageTable::Unmap(std::uint64_t vpn) {
  Node* node = Remove(page_buckets_, vpn);
  SVAGC_CHECK(node != nullptr &&
              (node->pte.present() || node->pte.swapped()));
  const frame_t frame =
      node->pte.present() ? node->pte.frame() : kInvalidFrame;
  delete node;  // mmap-time: no concurrent probe can still hold it
  --page_nodes_;
  --mapped_pages_;
  return frame;
}

void HashedPageTable::MapHuge(std::uint64_t vpn, frame_t base_frame) {
  SVAGC_CHECK((vpn & kIndexMask) == 0);
  SVAGC_CHECK(Find(huge_buckets_, UnitOf(vpn)) == nullptr);
  SVAGC_DCHECK(Find(page_buckets_, vpn) == nullptr);
  GrowToFit(huge_buckets_, huge_nodes_ + 1);
  GrowToFit(page_buckets_, mapped_pages_ + kPagesPerHuge);
  Insert(huge_buckets_, UnitOf(vpn), Pte::Make(base_frame));
  ++huge_nodes_;
  mapped_pages_ += kPagesPerHuge;
}

frame_t HashedPageTable::UnmapHuge(std::uint64_t vpn) {
  SVAGC_CHECK((vpn & kIndexMask) == 0);
  Node* node = Remove(huge_buckets_, UnitOf(vpn));
  SVAGC_CHECK(node != nullptr && node->pte.present());
  const frame_t base = node->pte.frame();
  delete node;
  --huge_nodes_;
  mapped_pages_ -= kPagesPerHuge;
  return base;
}

std::optional<frame_t> HashedPageTable::LookupHuge(std::uint64_t vpn) const {
  const Node* node = Find(huge_buckets_, UnitOf(vpn));
  if (node == nullptr) return std::nullopt;
  return node->pte.frame();
}

std::optional<frame_t> HashedPageTable::Lookup(std::uint64_t vpn) const {
  if (const Node* node = Find(page_buckets_, vpn)) {
    // Swapped-out pages are non-present; the node persists so the swap-slot
    // index travels with the vpn.
    if (!node->pte.present()) return std::nullopt;
    return node->pte.frame();
  }
  if (const Node* node = Find(huge_buckets_, UnitOf(vpn))) {
    return node->pte.frame() + (vpn & kIndexMask);
  }
  return std::nullopt;
}

Pte HashedPageTable::LookupPte(std::uint64_t vpn) const {
  if (const Node* node = Find(page_buckets_, vpn)) {
    return node->pte.LoadAcquire();
  }
  if (const Node* node = Find(huge_buckets_, UnitOf(vpn))) {
    // A huge-covered page is always resident; synthesize its slice.
    return Pte::Make(node->pte.frame() + (vpn & kIndexMask));
  }
  return Pte::Empty();
}

Translation::PteRef HashedPageTable::LeafSlotRaw(std::uint64_t vpn) {
  PteRef ref;
  Node* node = Find(page_buckets_, vpn);
  if (node == nullptr) return ref;  // unpopulated or huge-mapped
  ref.slot = &node->pte;
  const std::size_t bucket = HashKey(vpn) & (page_buckets_.size() - 1);
  ref.lock = &StripeFor(bucket);
  return ref;
}

void HashedPageTable::VisitSmallPages(
    const std::function<void(std::uint64_t, Pte)>& fn) const {
  for (const Node* head : page_buckets_) {
    for (const Node* node = head; node != nullptr; node = node->next) {
      if (node->pte.value != 0) fn(node->key, node->pte);
    }
  }
}

std::optional<frame_t> HashedPageTable::HardwareWalk(std::uint64_t vpn,
                                                     CycleAccount& acct,
                                                     const CostProfile& cost,
                                                     HugeTranslation* huge) {
  // No hardware walker exists for a hashed table: a TLB miss traps to the
  // software fill handler, which then probes the bucket chains.
  acct.Charge(CostKind::kTlbRefill, cost.swtlb_fill);
  ctr_swtlb_fills_->Add();
  if (Node* node = FindCosted(page_buckets_, vpn, acct, cost)) {
    // A swapped-out page has a node (carrying its slot index) but no
    // translation: the fill handler reports a miss and the fault path runs.
    if (!node->pte.present()) return std::nullopt;
    return node->pte.frame();
  }
  if (Node* node = FindCosted(huge_buckets_, UnitOf(vpn), acct, cost)) {
    if (huge != nullptr) {
      huge->huge = true;
      huge->unit_base_frame = node->pte.frame();
    }
    return node->pte.frame() + (vpn & kIndexMask);
  }
  return std::nullopt;
}

HashedPageTable::Node* HashedPageTable::SplitHugeNode(Node* huge_node,
                                                      std::uint64_t want_vpn) {
  const std::uint64_t base_vpn = huge_node->key << kLevelBits;
  const frame_t base_frame = huge_node->pte.frame();
  Node* want = nullptr;
  for (std::uint64_t i = 0; i < kPagesPerHuge; ++i) {
    Node* node =
        Insert(page_buckets_, base_vpn + i, Pte::Make(base_frame + i));
    if (base_vpn + i == want_vpn) want = node;
  }
  page_nodes_ += kPagesPerHuge;
  // Pages first, huge node last: a concurrent Lookup of another unit in the
  // same chain stays consistent, and this unit never transits "unmapped".
  Node* removed = Remove(huge_buckets_, huge_node->key);
  SVAGC_CHECK(removed == huge_node);
  retired_.push_back(removed);
  --huge_nodes_;
  SVAGC_CHECK(want != nullptr);
  return want;
}

Translation::PteRef HashedPageTable::LeafForPteSwap(std::uint64_t vpn,
                                                    CycleAccount& acct,
                                                    const CostProfile& cost,
                                                    PmdCache* cache) {
  (void)cache;  // no directory walk to cache
  PteRef ref;
  Node* node = FindCosted(page_buckets_, vpn, acct, cost);
  if (node == nullptr) {
    // Huge-leaf demotion. Two swappers resolving pages of the same unit can
    // both miss the page class; serialize and re-check so exactly one runs
    // the split (and reports split_huge, so the kernel charges the 512
    // entry writes once). The loser reuses the winner's fresh page node.
    split_lock_.lock();
    node = Find(page_buckets_, vpn);
    if (node == nullptr) {
      Node* huge_node = FindCosted(huge_buckets_, UnitOf(vpn), acct, cost);
      SVAGC_CHECK(huge_node != nullptr);
      node = SplitHugeNode(huge_node, vpn);
      ref.split_huge = true;
    }
    split_lock_.unlock();
  }
  ref.slot = &node->pte;
  const std::size_t bucket = HashKey(vpn) & (page_buckets_.size() - 1);
  ref.lock = &StripeFor(bucket);
  ctr_relinks_->Add();
  return ref;
}

bool HashedPageTable::CanExchangeUnits(std::uint64_t unit_vpn_a,
                                       std::uint64_t unit_vpn_b,
                                       std::uint64_t units) const {
  // Only huge-class entries relink wholesale; a split unit has 512 page
  // nodes and must go through the PTE path.
  for (std::uint64_t u = 0; u < units; ++u) {
    if (Find(huge_buckets_, UnitOf(unit_vpn_a) + u) == nullptr) return false;
    if (Find(huge_buckets_, UnitOf(unit_vpn_b) + u) == nullptr) return false;
  }
  return true;
}

void HashedPageTable::ExchangeUnits(std::uint64_t unit_vpn_a,
                                    std::uint64_t unit_vpn_b,
                                    CycleAccount& acct, const CostProfile& cost,
                                    PmdCache* cache_a, PmdCache* cache_b) {
  (void)cache_a;
  (void)cache_b;
  Node* node_a = FindCosted(huge_buckets_, UnitOf(unit_vpn_a), acct, cost);
  Node* node_b = FindCosted(huge_buckets_, UnitOf(unit_vpn_b), acct, cost);
  SVAGC_CHECK(node_a != nullptr && node_b != nullptr);
  std::swap(node_a->pte.value, node_b->pte.value);
  ctr_relinks_->Add(2);
}

Pte* HashedPageTable::HugeEntryForSwap(std::uint64_t unit_vpn,
                                       CycleAccount& acct,
                                       const CostProfile& cost,
                                       PmdCache* cache) {
  (void)cache;
  Node* node = FindCosted(huge_buckets_, UnitOf(unit_vpn), acct, cost);
  SVAGC_CHECK(node != nullptr && node->pte.present());
  ctr_relinks_->Add();
  return &node->pte;
}

std::uint64_t HashedPageTable::CountAliasedUnits() const {
  std::unordered_set<std::uint64_t> huge_units;
  for (const Node* head : huge_buckets_) {
    for (const Node* node = head; node != nullptr; node = node->next) {
      huge_units.insert(node->key);
    }
  }
  std::unordered_set<std::uint64_t> aliased;
  for (const Node* head : page_buckets_) {
    for (const Node* node = head; node != nullptr; node = node->next) {
      const std::uint64_t unit = UnitOf(node->key);
      if (huge_units.count(unit) != 0) aliased.insert(unit);
    }
  }
  return aliased.size();
}

std::uint64_t HashedPageTable::CountHugeLeaves() const { return huge_nodes_; }

}  // namespace svagc::sim
