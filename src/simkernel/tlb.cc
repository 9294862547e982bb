#include "simkernel/tlb.h"

#include <algorithm>

namespace svagc::sim {

namespace {

// Machine::NextAsid hands out ASIDs from 1 upwards, so the per-ASID counts
// stay a short vector. A tag this large is a caller bug, not a tenant.
constexpr std::uint64_t kMaxDenseAsid = 1ULL << 20;

}  // namespace

Tlb::Tlb(unsigned entries, unsigned ways)
    : sets_(entries / ways), ways_(ways), entries_(sets_ * ways_) {
  SVAGC_CHECK(sets_ >= 1 && ways_ >= 1);
}

std::uint32_t& Tlb::CountSlot(std::uint64_t asid) {
  if (asid >= asid_entries_.size()) {
    SVAGC_CHECK(asid < kMaxDenseAsid);
    asid_entries_.resize(asid + 1, 0);
  }
  return asid_entries_[asid];
}

Tlb::LookupResult Tlb::LookupTagged(std::uint64_t asid, std::uint64_t vpn,
                                    bool huge) {
  const std::uint64_t tag_vpn = huge ? (vpn & ~kIndexMask) : vpn;
  const std::size_t set_index =
      huge ? HugeSetIndex(asid, vpn) : SetIndex(asid, vpn);
  Entry* set = &entries_[set_index * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    Entry& entry = set[w];
    if (entry.valid && entry.huge == huge && entry.asid == asid &&
        entry.vpn == tag_vpn) {
      entry.lru = ++clock_;
      const frame_t frame =
          huge ? entry.frame + (vpn & kIndexMask) : entry.frame;
      return {true, frame};
    }
  }
  return {false, kInvalidFrame};
}

Tlb::LookupResult Tlb::Lookup(std::uint64_t asid, std::uint64_t vpn) {
  SpinLockGuard guard(lock_);
  LookupResult result = LookupTagged(asid, vpn, /*huge=*/false);
  if (!result.hit) result = LookupTagged(asid, vpn, /*huge=*/true);
  if (result.hit) {
    ++hits_;
  } else {
    ++misses_;
  }
  return result;
}

void Tlb::InsertTagged(std::uint64_t asid, std::uint64_t vpn, frame_t frame,
                       bool huge) {
  const std::size_t set_index =
      huge ? HugeSetIndex(asid, vpn) : SetIndex(asid, vpn);
  Entry* set = &entries_[set_index * ways_];
  Entry* victim = &set[0];
  for (unsigned w = 0; w < ways_; ++w) {
    Entry& entry = set[w];
    if (entry.valid && entry.huge == huge && entry.asid == asid &&
        entry.vpn == vpn) {
      entry.frame = frame;  // refresh a racing duplicate
      entry.lru = ++clock_;
      return;
    }
    if (!entry.valid) {
      victim = &entry;
    } else if (victim->valid && entry.lru < victim->lru) {
      victim = &entry;
    }
  }
  if (victim->valid) --asid_entries_[victim->asid];
  ++CountSlot(asid);
  *victim = Entry{true, huge, asid, vpn, frame, ++clock_};
}

void Tlb::Insert(std::uint64_t asid, std::uint64_t vpn, frame_t frame) {
  SpinLockGuard guard(lock_);
  InsertTagged(asid, vpn, frame, /*huge=*/false);
}

void Tlb::InsertHuge(std::uint64_t asid, std::uint64_t vpn,
                     frame_t base_frame) {
  SVAGC_DCHECK((vpn & kIndexMask) == 0);
  SpinLockGuard guard(lock_);
  InsertTagged(asid, vpn, base_frame, /*huge=*/true);
}

void Tlb::FlushAsid(std::uint64_t asid) {
  SpinLockGuard guard(lock_);
  ++flushes_;
  if (CountOf(asid) == 0) return;
  std::uint32_t& count = asid_entries_[asid];
  for (auto it = entries_.begin(); count > 0 && it != entries_.end(); ++it) {
    if (it->valid && it->asid == asid) {
      it->valid = false;
      --count;
    }
  }
}

void Tlb::FlushPage(std::uint64_t asid, std::uint64_t vpn) {
  SpinLockGuard guard(lock_);
  if (CountOf(asid) == 0) return;
  std::uint32_t& count = asid_entries_[asid];
  Entry* set = &entries_[SetIndex(asid, vpn) * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    Entry& entry = set[w];
    if (entry.valid && !entry.huge && entry.asid == asid && entry.vpn == vpn) {
      entry.valid = false;
      --count;
      break;
    }
  }
  // invlpg semantics: a 4 KiB-granular invalidation inside a huge-mapped
  // unit must drop the whole huge entry.
  const std::uint64_t unit_vpn = vpn & ~kIndexMask;
  Entry* huge_set = &entries_[HugeSetIndex(asid, vpn) * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    Entry& entry = huge_set[w];
    if (entry.valid && entry.huge && entry.asid == asid &&
        entry.vpn == unit_vpn) {
      entry.valid = false;
      --count;
      break;
    }
  }
}

std::vector<TlbSnapshotEntry> Tlb::SnapshotValidEntries() {
  SpinLockGuard guard(lock_);
  std::vector<TlbSnapshotEntry> snapshot;
  for (const Entry& entry : entries_) {
    if (entry.valid) {
      snapshot.push_back({entry.asid, entry.vpn, entry.frame, entry.huge});
    }
  }
  return snapshot;
}

std::uint64_t Tlb::ValidEntries(std::uint64_t asid) {
  SpinLockGuard guard(lock_);
  return CountOf(asid);
}

void Tlb::FlushAll() {
  SpinLockGuard guard(lock_);
  ++flushes_;
  for (Entry& entry : entries_) entry.valid = false;
  std::fill(asid_entries_.begin(), asid_entries_.end(), 0);
}

}  // namespace svagc::sim
