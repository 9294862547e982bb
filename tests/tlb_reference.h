// Reference TLB model for the differential tests: the original
// set-associative, ASID-tagged TLB with LRU replacement, whose FlushAsid
// scans every entry and whose FlushPage probes both sets on every call. It
// keeps no per-ASID counts. It is kept only as the oracle the production
// sim::Tlb must match lookup for lookup and entry for entry; nothing outside
// tests/ may use it. Single-threaded: it takes no lock.
#pragma once

#include <cstdint>
#include <vector>

#include "simkernel/config.h"
#include "simkernel/tlb.h"
#include "support/check.h"

namespace svagc::sim::reference {

class Tlb {
 public:
  explicit Tlb(unsigned entries = 1536, unsigned ways = 12)
      : sets_(entries / ways), ways_(ways), entries_(sets_ * ways_) {
    SVAGC_CHECK(sets_ >= 1 && ways_ >= 1);
  }

  sim::Tlb::LookupResult Lookup(std::uint64_t asid, std::uint64_t vpn) {
    sim::Tlb::LookupResult result = LookupTagged(asid, vpn, /*huge=*/false);
    if (!result.hit) result = LookupTagged(asid, vpn, /*huge=*/true);
    if (result.hit) {
      ++hits_;
    } else {
      ++misses_;
    }
    return result;
  }

  void Insert(std::uint64_t asid, std::uint64_t vpn, frame_t frame) {
    InsertTagged(asid, vpn, frame, /*huge=*/false);
  }

  void InsertHuge(std::uint64_t asid, std::uint64_t vpn, frame_t base_frame) {
    SVAGC_CHECK((vpn & kIndexMask) == 0);
    InsertTagged(asid, vpn, base_frame, /*huge=*/true);
  }

  void FlushAsid(std::uint64_t asid) {
    ++flushes_;
    for (Entry& entry : entries_) {
      if (entry.valid && entry.asid == asid) entry.valid = false;
    }
  }

  void FlushPage(std::uint64_t asid, std::uint64_t vpn) {
    Entry* set = &entries_[SetIndex(asid, vpn) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
      Entry& entry = set[w];
      if (entry.valid && !entry.huge && entry.asid == asid &&
          entry.vpn == vpn) {
        entry.valid = false;
        break;
      }
    }
    const std::uint64_t unit_vpn = vpn & ~kIndexMask;
    Entry* huge_set = &entries_[HugeSetIndex(asid, vpn) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
      Entry& entry = huge_set[w];
      if (entry.valid && entry.huge && entry.asid == asid &&
          entry.vpn == unit_vpn) {
        entry.valid = false;
        break;
      }
    }
  }

  void FlushAll() {
    ++flushes_;
    for (Entry& entry : entries_) entry.valid = false;
  }

  std::vector<TlbSnapshotEntry> SnapshotValidEntries() const {
    std::vector<TlbSnapshotEntry> snapshot;
    for (const Entry& entry : entries_) {
      if (entry.valid) {
        snapshot.push_back({entry.asid, entry.vpn, entry.frame, entry.huge});
      }
    }
    return snapshot;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t flushes() const { return flushes_; }
  // Inserts that replaced a valid LRU victim.
  std::uint64_t replacements() const { return replacements_; }

 private:
  struct Entry {
    bool valid = false;
    bool huge = false;
    std::uint64_t asid = 0;
    std::uint64_t vpn = 0;
    frame_t frame = kInvalidFrame;
    std::uint64_t lru = 0;
  };

  std::size_t SetIndex(std::uint64_t asid, std::uint64_t vpn) const {
    return static_cast<std::size_t>((vpn ^ (asid * 0x9E3779B9ULL)) % sets_);
  }
  std::size_t HugeSetIndex(std::uint64_t asid, std::uint64_t vpn) const {
    return SetIndex(asid, (vpn >> kLevelBits) ^ 0x5A5A5A5AULL);
  }

  sim::Tlb::LookupResult LookupTagged(std::uint64_t asid, std::uint64_t vpn,
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

  void InsertTagged(std::uint64_t asid, std::uint64_t vpn, frame_t frame,
                    bool huge) {
    const std::size_t set_index =
        huge ? HugeSetIndex(asid, vpn) : SetIndex(asid, vpn);
    Entry* set = &entries_[set_index * ways_];
    Entry* victim = &set[0];
    for (unsigned w = 0; w < ways_; ++w) {
      Entry& entry = set[w];
      if (entry.valid && entry.huge == huge && entry.asid == asid &&
          entry.vpn == vpn) {
        entry.frame = frame;
        entry.lru = ++clock_;
        return;
      }
      if (!entry.valid) {
        victim = &entry;
      } else if (victim->valid && entry.lru < victim->lru) {
        victim = &entry;
      }
    }
    if (victim->valid) ++replacements_;
    *victim = Entry{true, huge, asid, vpn, frame, ++clock_};
  }

  unsigned sets_;
  unsigned ways_;
  std::vector<Entry> entries_;  // sets_ x ways_, row-major
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t replacements_ = 0;
};

}  // namespace svagc::sim::reference
