// Far-memory tier: a DRAM-resident swap area with a calibrated cost model.
//
// The near tier is PhysicalMemory's frame pool; the far tier is a slot
// array holding the real bytes of swapped-out pages (SUSTechOS-style: the
// swap area is just memory, but every byte crossing the boundary is charged
// at far_read_per_byte / far_write_per_byte — CXL/NVM-class media). A page
// is either resident (present PTE, frame allocated) or swapped (PTE carries
// the slot index, no frame). Faults are handled in userspace: the kernel
// trap (fault_entry) dispatches to a per-process lightweight-thread handler
// (fault_dispatch) which swaps the page in, evicting a victim first when
// the residency limit is reached.
//
// Eviction policy is a two-list active/inactive clock (Linux-style LRU
// approximation): pages enter the active list on swap-in and on mapping;
// HwPtr touches set a reference bit. The victim scan refills the inactive
// list from the cold end of the active list, skipping (and demoting)
// referenced pages, so a freshly touched page needs two full scans to leave.
// The scan is deterministic — no sampling, no timestamps — which keeps the
// modeled-cycle figures reproducible.
//
// The headline interaction: SwapVA exchanges leaf words *whatever their
// residency state*. A swapped entry relinks slot-index-for-frame (or
// slot-for-slot) with zero far-tier traffic, while the memmove path must
// fault the page in (far read) and usually evict another (far write) first.
// bench/fig23_far_tier measures exactly this.
//
// Concurrency: one SpinLock serializes the tier (clock + slot allocator +
// resident count). PTE flips additionally take the leaf lock from
// Translation::LeafSlotRaw — the same lock SwapVA holds while exchanging —
// so a relink and an eviction of the same page serialize. Lock order is
// tier lock -> leaf lock; SwapVA takes only leaf locks, so no cycle exists.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "simkernel/config.h"
#include "simkernel/cost_model.h"
#include "simkernel/fault.h"
#include "simkernel/machine.h"
#include "simkernel/phys_mem.h"
#include "simkernel/translation.h"
#include "support/check.h"
#include "support/spin_lock.h"
#include "telemetry/metrics.h"

namespace svagc::sim {

struct FarTierConfig {
  // Maximum resident (near-tier) pages for this address space. Pages beyond
  // the limit are demoted to the far tier; 0 means "no overcommit" and is
  // rejected at enable time (an address space must keep at least one
  // resident page to make progress).
  std::uint64_t resident_limit_pages = 0;
};

// The swap area: real byte storage per slot plus a free-list allocator.
// Slot indices are dense and reused LIFO, so repeated evict/fault cycles
// stay deterministic.
class FarMemory {
 public:
  std::uint64_t AllocSlot();
  void FreeSlot(std::uint64_t slot);
  bool IsAllocated(std::uint64_t slot) const;

  std::byte* SlotData(std::uint64_t slot) {
    SVAGC_DCHECK(IsAllocated(slot));
    return slots_[slot].get();
  }

  std::uint64_t used_slots() const { return used_; }

 private:
  std::vector<std::unique_ptr<std::byte[]>> slots_;
  std::vector<bool> allocated_;
  std::vector<std::uint64_t> free_list_;
  std::uint64_t used_ = 0;
};

// Two-list clock over resident vpns. Lazy deletion: lists hold (vpn, tag)
// pairs and a map holds the live tag per vpn, so removal is O(1) and stale
// list entries are discarded when the scan meets them.
class ResidencyClock {
 public:
  // Page became resident (mapped or swapped in): enters the active list.
  void NoteResident(std::uint64_t vpn);
  // Page left the near tier (evicted or unmapped).
  void NoteGone(std::uint64_t vpn);
  // Reference-bit set on a hardware translation of vpn. No-op for pages
  // the clock does not track.
  void Touch(std::uint64_t vpn);
  // Next eviction victim: the coldest inactive page, refilling the inactive
  // list from the active list's cold end when it runs dry (referenced pages
  // get a second chance: cleared and recycled to the active hot end).
  // Returns false when no page is tracked.
  bool PickVictim(std::uint64_t* vpn);

  std::uint64_t tracked_pages() const { return state_.size(); }

 private:
  struct Entry {
    std::uint64_t vpn;
    std::uint64_t tag;
  };
  struct State {
    std::uint64_t tag;
    bool referenced;
  };

  bool Live(const Entry& e) const {
    auto it = state_.find(e.vpn);
    return it != state_.end() && it->second.tag == e.tag;
  }

  std::deque<Entry> active_;
  std::deque<Entry> inactive_;
  std::unordered_map<std::uint64_t, State> state_;
  std::uint64_t next_tag_ = 1;
};

// The per-address-space tier: swap area + residency clock + policy. All
// entry points take the fault-injection hook as a parameter (the kernel
// owns the hook; threading it through avoids a Kernel dependency here).
class FarTier {
 public:
  FarTier(Machine& machine, PhysicalMemory& phys, Translation& table,
          std::uint64_t asid, const FarTierConfig& config);

  // Demotes one resident page to the far tier: far-write of its contents,
  // PTE flip to swapped, frame freed, TLBs invalidated on every core.
  // Returns false (without evicting) when the page is not resident — the
  // double-evict hazard — or when kSwapSlotWriteLost fires (the eviction
  // aborts, the page stays resident).
  bool SwapOut(CpuContext& ctx, std::uint64_t vpn, FaultHook* hook);

  // Promotes one swapped page: evicts victims while at the residency limit,
  // then far-reads the slot into a fresh frame and flips the PTE present.
  void SwapIn(CpuContext& ctx, std::uint64_t vpn, FaultHook* hook);

  // The userspace fault path: trap entry + lightweight-thread dispatch
  // charges, then SwapIn.
  void HandleFault(CpuContext& ctx, std::uint64_t vpn, FaultHook* hook);

  // Reference-bit hook for hardware translations.
  void Touch(std::uint64_t vpn);

  // Page pinning (get_user_pages semantics): pinned pages are skipped by
  // the victim scan, so a bulk copy's frames cannot be stolen mid-copy by a
  // concurrent worker's fault-triggered eviction. The bulk paths pin their
  // source and destination ranges BEFORE faulting them resident; while every
  // candidate is pinned the resident count may transiently exceed the limit
  // (the limit is enforced lazily, like mlocked pages escaping reclaim).
  // Word-granularity raw accesses re-resolve their frame per access and are
  // assumed atomic with respect to eviction (hardware access atomicity);
  // only multi-page copies hold frame pointers long enough to need a pin.
  void PinRange(std::uint64_t vpn, std::uint64_t pages);
  void UnpinRange(std::uint64_t vpn, std::uint64_t pages);

  // Map/unmap bookkeeping from the address space.
  void NoteMapped(std::uint64_t vpn);
  void NoteUnmapped(std::uint64_t vpn);
  // A huge leaf split into 512 present 4 KiB PTEs (THP demotion on the
  // SwapVA path): every page of the unit becomes individually resident and
  // evictable. Keeps the tier's resident count equal to the page table's
  // present-PTE count — the tier-residency invariant.
  void NoteUnitSplit(std::uint64_t unit_vpn);
  // Frees the swap slot of a page unmapped while swapped out.
  void ReleaseSlot(std::uint64_t slot);

  // Raises or lowers the residency limit, evicting down to it immediately.
  void SetResidentLimit(CpuContext& ctx, std::uint64_t pages, FaultHook* hook);

  // Direct far-tier byte access for uncosted reads (heap digests, snapshot
  // restore): the bytes of a swapped page, by slot.
  std::byte* SlotBytes(std::uint64_t slot);

  std::uint64_t resident_pages() const { return resident_; }
  std::uint64_t resident_limit() const { return config_.resident_limit_pages; }
  std::uint64_t used_slots() const { return far_.used_slots(); }
  // Verifier probe: is this slot currently handed out by the allocator?
  bool SlotAllocated(std::uint64_t slot) const {
    return far_.IsAllocated(slot);
  }

  // This tier's own tallies. They are per tenant, while the kernel.tier.*
  // counters in the machine registry sum every tenant's tier.
  std::uint64_t faults() const {
    return faults_.load(std::memory_order_relaxed);
  }
  std::uint64_t swapins() const {
    return swapins_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t far_bytes_written() const {
    return far_bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  // Both require lock_ held.
  bool SwapOutLocked(CpuContext& ctx, std::uint64_t vpn, FaultHook* hook);
  void EvictToLimitLocked(CpuContext& ctx, std::uint64_t headroom,
                          FaultHook* hook);

  Machine& machine_;
  PhysicalMemory& phys_;
  Translation& table_;
  const std::uint64_t asid_;
  FarTierConfig config_;

  mutable SpinLock lock_;
  FarMemory far_;
  ResidencyClock clock_;
  std::uint64_t resident_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> pins_;  // vpn -> pin count

  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> swapins_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> far_bytes_written_{0};

  telemetry::Counter& ctr_faults_;
  telemetry::Counter& ctr_swapins_;
  telemetry::Counter& ctr_evictions_;
  telemetry::Counter& ctr_shootdowns_;
  telemetry::Counter& ctr_page_flushes_;
  telemetry::Counter& ctr_far_bytes_;
};

}  // namespace svagc::sim
