// Per-core TLB model.
//
// Set-associative, tagged by (address-space id, vpn), with LRU replacement.
// It serves two roles: (1) cost accounting — translations hit or miss and a
// miss costs a hardware page walk; (2) correctness of the shootdown logic —
// a core that skips a needed flush would observe a stale frame, and the
// address-space layer asserts translations against the live page table, so
// shootdown bugs surface as hard failures in tests.
//
// Huge (2 MiB) entries share the array: one entry tagged by the unit-base
// vpn maps kPagesPerHuge pages (the dTLB-reach benefit of PMD leaves).
// FlushPage of any 4 KiB vpn inside a huge-mapped unit invalidates the huge
// entry — the shootdown granularity a real invlpg provides.
//
// Each TLB also counts its valid entries per ASID. A flush of an ASID the
// TLB holds nothing of returns before touching the entry array, so the
// far tier's per-eviction all-core invalidation and the remote half of a
// shootdown cost host time only on the few cores that cached the tenant.
// The modeled charges are the callers' and do not depend on the counts.
#pragma once

#include <cstdint>
#include <vector>

#include "simkernel/config.h"
#include "support/check.h"
#include "support/spin_lock.h"

namespace svagc::sim {

// One valid TLB entry, as observed by SnapshotValidEntries. For huge
// entries, vpn is the unit-base vpn and frame the unit-base frame.
struct TlbSnapshotEntry {
  std::uint64_t asid = 0;
  std::uint64_t vpn = 0;
  frame_t frame = kInvalidFrame;
  bool huge = false;
};

class Tlb {
 public:
  // Defaults approximate a Skylake STLB: 1536 entries, 12-way.
  explicit Tlb(unsigned entries = 1536, unsigned ways = 12);

  struct LookupResult {
    bool hit = false;
    frame_t frame = kInvalidFrame;
  };

  // Thread-safe: remote cores may flush while the owner translates.
  // Probes the 4 KiB tag first, then the huge tag of the covering unit (a
  // huge hit returns the per-page frame, base + offset-in-unit).
  LookupResult Lookup(std::uint64_t asid, std::uint64_t vpn);
  void Insert(std::uint64_t asid, std::uint64_t vpn, frame_t frame);
  // Installs a 2 MiB entry; vpn must be the unit-base vpn.
  void InsertHuge(std::uint64_t asid, std::uint64_t vpn, frame_t base_frame);

  // Full flush of one address space's entries (CR3 switch / flush_tlb_local).
  // Counted in flushes() even when no entry of `asid` is cached.
  void FlushAsid(std::uint64_t asid);
  // Single-page invalidation (invlpg / flush_tlb_page). Also drops the huge
  // entry covering vpn, if any — invalidation granularity must never be
  // finer than the mapping granularity.
  void FlushPage(std::uint64_t asid, std::uint64_t vpn);
  void FlushAll();

  // Copies every valid entry under the lock — the TLB-coherence invariant
  // compares these against the live page table. Observation only: no cost
  // accounting, no LRU update.
  std::vector<TlbSnapshotEntry> SnapshotValidEntries();
  // Valid entries (4 KiB and huge) tagged `asid`: the count the flush paths
  // consult. Observation only, like SnapshotValidEntries.
  std::uint64_t ValidEntries(std::uint64_t asid);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  struct Entry {
    bool valid = false;
    bool huge = false;
    std::uint64_t asid = 0;
    std::uint64_t vpn = 0;
    frame_t frame = kInvalidFrame;
    std::uint64_t lru = 0;  // last-use stamp
  };

  std::size_t SetIndex(std::uint64_t asid, std::uint64_t vpn) const {
    // Mix asid into the index so multi-process cores do not false-share sets.
    return static_cast<std::size_t>((vpn ^ (asid * 0x9E3779B9ULL)) % sets_);
  }
  // Huge entries index by unit number in a distinct key namespace, so a
  // 4 KiB entry for the unit-base vpn and the huge entry for the unit do
  // not contend for the same tag.
  std::size_t HugeSetIndex(std::uint64_t asid, std::uint64_t vpn) const {
    return SetIndex(asid, (vpn >> kLevelBits) ^ 0x5A5A5A5AULL);
  }

  LookupResult LookupTagged(std::uint64_t asid, std::uint64_t vpn, bool huge);
  void InsertTagged(std::uint64_t asid, std::uint64_t vpn, frame_t frame,
                    bool huge);

  // Both require lock_ held. ASIDs the TLB never cached count zero.
  std::uint32_t CountOf(std::uint64_t asid) const {
    return asid < asid_entries_.size() ? asid_entries_[asid] : 0;
  }
  std::uint32_t& CountSlot(std::uint64_t asid);

  unsigned sets_;
  unsigned ways_;
  std::vector<Entry> entries_;  // sets_ x ways_, row-major
  std::uint64_t clock_ = 0;
  // Valid entries per ASID, indexed by the machine's dense ASIDs and grown
  // on insert.
  std::vector<std::uint32_t> asid_entries_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t flushes_ = 0;

  SpinLock lock_;
};

}  // namespace svagc::sim
