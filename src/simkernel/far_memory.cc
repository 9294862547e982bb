#include "simkernel/far_memory.h"

#include <algorithm>
#include <cstring>

namespace svagc::sim {

namespace {

// What every zero slot reads as.
alignas(64) constexpr std::byte kZeroPage[kPageSize] = {};

}  // namespace

// --- FarMemory --------------------------------------------------------------

std::uint64_t FarMemory::AllocSlot() {
  std::uint64_t slot;
  if (!free_list_.empty()) {
    slot = free_list_.back();
    free_list_.pop_back();
  } else {
    slot = slots_.size();
    // Left uninitialized: nothing reads a slot before SwapOutLocked has
    // stored a page in it, and the kSwapSlotWriteLost abort frees the
    // slot unread. A reused slot holds a stale page for the same reason.
    slots_.push_back(
        Slot{std::make_unique_for_overwrite<std::byte[]>(kPageSize)});
  }
  SVAGC_DCHECK(!slots_[slot].allocated);
  slots_[slot].allocated = true;
  ++used_;
  return slot;
}

void FarMemory::FreeSlot(std::uint64_t slot) {
  SVAGC_CHECK(IsAllocated(slot));
  slots_[slot].allocated = false;
  free_list_.push_back(slot);
  --used_;
}

bool FarMemory::IsAllocated(std::uint64_t slot) const {
  return slot < slots_.size() && slots_[slot].allocated;
}

void FarMemory::Store(std::uint64_t slot, const std::byte* page) {
  SVAGC_DCHECK(IsAllocated(slot));
  std::memcpy(slots_[slot].bytes.get(), page, kPageSize);
  slots_[slot].zero = false;
}

void FarMemory::StoreZero(std::uint64_t slot) {
  SVAGC_DCHECK(IsAllocated(slot));
  slots_[slot].zero = true;
}

const std::byte* FarMemory::SlotData(std::uint64_t slot) const {
  SVAGC_DCHECK(IsAllocated(slot));
  return slots_[slot].zero ? kZeroPage : slots_[slot].bytes.get();
}

std::byte* FarMemory::WritableSlotData(std::uint64_t slot) {
  SVAGC_DCHECK(IsAllocated(slot));
  Slot& s = slots_[slot];
  if (s.zero) {
    std::memset(s.bytes.get(), 0, kPageSize);
    s.zero = false;
  }
  return s.bytes.get();
}

// --- ResidencyClock ---------------------------------------------------------

void ResidencyClock::NoteResident(std::uint64_t vpn) {
  const std::uint64_t tag = next_tag_++;
  state_[vpn] = State{tag, /*referenced=*/false};
  active_.push_back(Entry{vpn, tag});
}

void ResidencyClock::NoteGone(std::uint64_t vpn) {
  // Lazy: the stale list entry is discarded when a scan meets it.
  state_.erase(vpn);
}

void ResidencyClock::Touch(std::uint64_t vpn) {
  auto it = state_.find(vpn);
  if (it != state_.end()) it->second.referenced = true;
}

bool ResidencyClock::PickVictim(std::uint64_t* vpn) {
  for (;;) {
    while (!inactive_.empty()) {
      const Entry e = inactive_.front();
      inactive_.pop_front();
      auto it = state_.find(e.vpn);
      if (it == state_.end() || it->second.tag != e.tag) continue;  // stale
      if (it->second.referenced) {
        // Second chance: promote back to the active hot end.
        it->second.referenced = false;
        const std::uint64_t tag = next_tag_++;
        it->second.tag = tag;
        active_.push_back(Entry{e.vpn, tag});
        continue;
      }
      *vpn = e.vpn;
      return true;
    }
    // Refill the inactive list from the active list's cold end. Referenced
    // active pages stay active (bit cleared, recycled to the hot end);
    // unreferenced ones demote.
    bool moved = false;
    std::size_t budget = active_.size();
    while (budget-- > 0 && !active_.empty()) {
      const Entry e = active_.front();
      active_.pop_front();
      auto it = state_.find(e.vpn);
      if (it == state_.end() || it->second.tag != e.tag) continue;  // stale
      const std::uint64_t tag = next_tag_++;
      it->second.tag = tag;
      if (it->second.referenced) {
        it->second.referenced = false;
        active_.push_back(Entry{e.vpn, tag});
      } else {
        inactive_.push_back(Entry{e.vpn, tag});
        moved = true;
      }
    }
    if (inactive_.empty() && !moved) {
      // Every tracked page was referenced and recycled (or nothing is
      // tracked): force-demote the now-coldest active page so the scan
      // terminates.
      while (!active_.empty()) {
        const Entry e = active_.front();
        active_.pop_front();
        if (!Live(e)) continue;
        *vpn = e.vpn;
        state_[e.vpn].referenced = false;
        return true;
      }
      return false;
    }
  }
}

// --- FarTier ----------------------------------------------------------------

FarTier::FarTier(Machine& machine, PhysicalMemory& phys, Translation& table,
                 std::uint64_t asid, const FarTierConfig& config)
    : machine_(machine),
      phys_(phys),
      table_(table),
      asid_(asid),
      config_(config),
      ctr_faults_(machine.metrics().counter("kernel.tier.faults")),
      ctr_swapins_(machine.metrics().counter("kernel.tier.swapins")),
      ctr_evictions_(machine.metrics().counter("kernel.tier.evictions")),
      ctr_shootdowns_(machine.metrics().counter("kernel.tier.shootdowns")),
      ctr_page_flushes_(machine.metrics().counter("tlb.page_flushes")),
      ctr_far_bytes_(
          machine.metrics().counter("kernel.tier.far_bytes_written")) {
  SVAGC_CHECK(config_.resident_limit_pages >= 1);
  // Seed the clock with every already-resident 4 KiB page. Huge-mapped
  // units never enter the tier (their reach defeats per-page eviction and
  // the PMD fast path must stay a pure entry exchange).
  table_.VisitSmallPages([this](std::uint64_t vpn, Pte pte) {
    if (pte.present()) {
      clock_.NoteResident(vpn);
      ++resident_;
    }
  });
}

bool FarTier::SwapOutLocked(CpuContext& ctx, std::uint64_t vpn,
                            FaultHook* hook) {
  Translation::PteRef ref = table_.LeafSlotRaw(vpn);
  if (ref.slot == nullptr) {
    // Unpopulated or huge-mapped: nothing to demote.
    clock_.NoteGone(vpn);
    return false;
  }
  ref.lock->lock();
  if (!ref.slot->present()) {
    // Double-evict hazard: the page was already evicted (or unmapped) since
    // the victim was chosen. Detect and skip — evicting again would free a
    // frame we do not hold and corrupt the slot bijection.
    ref.lock->unlock();
    clock_.NoteGone(vpn);
    return false;
  }
  if (PinnedLocked(vpn)) {
    // Pinned under a bulk copy: stealing the frame now would tear the
    // copy's writes. Skip, and re-enter the clock (the victim scan consumed
    // this page's list entry) so a later scan can retry after the unpin.
    ref.lock->unlock();
    clock_.NoteResident(vpn);
    return false;
  }
  const frame_t frame = ref.slot->frame();
  const std::uint64_t slot = far_.AllocSlot();
  if (hook != nullptr && hook->ShouldFire(FaultPoint::kSwapSlotWriteLost)) {
    // The far write never completed: abort the eviction before the PTE
    // flips, so no swapped entry can name a slot with stale contents. The
    // page stays resident; re-enter the clock (the victim scan consumed
    // its list entry) so a later scan can retry it.
    far_.FreeSlot(slot);
    ref.lock->unlock();
    clock_.NoteResident(vpn);
    return false;
  }
  // A known-zero frame is stored as a zero slot, without the host copy;
  // the modeled far write below is charged either way.
  if (phys_.KnownZero(frame)) {
    far_.StoreZero(slot);
  } else {
    far_.Store(slot, phys_.FrameData(frame));
  }
  ctx.account.Charge(CostKind::kFarWrite,
                     machine_.cost().far_write_per_byte * kPageSize);
  // NVM-wear accounting: the far tier is the write-limited medium, so far
  // writes count toward the same bytes-written tally ablation_nvm_wear
  // reads (paper §VI — SwapVA's zero-copy relink avoids exactly these).
  phys_.NoteBytesWritten(kPageSize);
  far_bytes_written_.fetch_add(kPageSize, std::memory_order_relaxed);
  ctr_far_bytes_.Add(kPageSize);
  ref.slot->StoreRelease(Pte::MakeSwapped(slot));
  ref.lock->unlock();

  phys_.FreeFrame(frame);
  // No TLB anywhere may keep the stale translation once the frame is gone.
  machine_.FlushPageAllCores(ctx, asid_, vpn);
  ctr_shootdowns_.Add();
  ctr_page_flushes_.Add(machine_.num_cores());
  clock_.NoteGone(vpn);
  --resident_;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  ctr_evictions_.Add();
  return true;
}

void FarTier::EvictToLimitLocked(CpuContext& ctx, std::uint64_t headroom,
                                 FaultHook* hook) {
  SVAGC_DCHECK(headroom <= config_.resident_limit_pages);
  const std::uint64_t want = config_.resident_limit_pages - headroom;
  std::uint64_t skipped = 0;
  while (resident_ > want) {
    std::uint64_t victim;
    if (!clock_.PickVictim(&victim)) break;  // nothing left to demote
    const bool demoted = SwapOutLocked(ctx, victim, hook);
    if (!demoted) {
      // Pinned, stale, or an injected write-lost abort. A bounded number of
      // consecutive skips ends the scan: when every candidate is pinned the
      // limit is simply enforced later (lazily), once the pins drop.
      if (++skipped > clock_.tracked_pages()) break;
      continue;
    }
    skipped = 0;
    if (hook != nullptr &&
        hook->ShouldFire(FaultPoint::kDoubleEvict)) {
      // Injected stale victim: replay the vpn the scan just evicted, as a
      // racing scan holding a stale list entry would. The demotion path must
      // detect the non-present PTE and skip — evicting "again" would free a
      // frame nobody holds and corrupt the slot bijection.
      SVAGC_CHECK(!SwapOutLocked(ctx, victim, hook));
    }
  }
}

bool FarTier::SwapOut(CpuContext& ctx, std::uint64_t vpn, FaultHook* hook) {
  lock_.lock();
  const bool demoted = SwapOutLocked(ctx, vpn, hook);
  lock_.unlock();
  return demoted;
}

void FarTier::SwapIn(CpuContext& ctx, std::uint64_t vpn, FaultHook* hook,
                     FaultIntent intent) {
  lock_.lock();
  Translation::PteRef ref = table_.LeafSlotRaw(vpn);
  SVAGC_CHECK(ref.slot != nullptr);
  ref.lock->lock();
  if (!ref.slot->swapped()) {
    // Already resident (a concurrent fault won the race).
    ref.lock->unlock();
    lock_.unlock();
    return;
  }
  const std::uint64_t slot = ref.slot->swap_slot();
  ref.lock->unlock();

  // Make room first: the frame allocator aborts on exhaustion, so the
  // eviction's FreeFrame must land before our AllocFrame.
  EvictToLimitLocked(ctx, /*headroom=*/1, hook);

  const frame_t frame = phys_.AllocFrame();
  SVAGC_CHECK(far_.IsAllocated(slot));
  // Host bytes move only where the frame's old bytes would show: under an
  // overwrite intent the caller overwrites the whole page first, and a zero
  // slot needs no fill on a known-zero frame. The modeled far read below is
  // charged either way.
  if (intent == FaultIntent::kAccess) {
    if (!far_.KnownZero(slot)) {
      std::memcpy(phys_.WritableFrameData(frame), far_.SlotData(slot),
                  kPageSize);
    } else if (!phys_.KnownZero(frame)) {
      std::memset(phys_.WritableFrameData(frame), 0, kPageSize);
      phys_.MarkKnownZero(frame);
    }
  }
  ctx.account.Charge(CostKind::kFarRead,
                     machine_.cost().far_read_per_byte * kPageSize);
  // The frame write is near-tier traffic on the wear tally, same as the
  // memmove path's destination writes.
  phys_.NoteBytesWritten(kPageSize);
  far_.FreeSlot(slot);

  ref.lock->lock();
  SVAGC_CHECK(ref.slot->swapped() && ref.slot->swap_slot() == slot);
  ref.slot->StoreRelease(Pte::Make(frame));
  ref.lock->unlock();

  clock_.NoteResident(vpn);
  ++resident_;
  swapins_.fetch_add(1, std::memory_order_relaxed);
  ctr_swapins_.Add();
  lock_.unlock();
}

void FarTier::HandleFault(CpuContext& ctx, std::uint64_t vpn,
                          FaultHook* hook, FaultIntent intent) {
  ctx.account.Charge(CostKind::kFault, machine_.cost().fault_entry +
                                           machine_.cost().fault_dispatch);
  faults_.fetch_add(1, std::memory_order_relaxed);
  ctr_faults_.Add();
  SwapIn(ctx, vpn, hook, intent);
}

void FarTier::Touch(std::uint64_t vpn) {
  lock_.lock();
  clock_.Touch(vpn);
  lock_.unlock();
}

bool FarTier::PinnedLocked(std::uint64_t vpn) const {
  return std::any_of(pins_.begin(), pins_.end(), [vpn](const PinnedRange& r) {
    return vpn - r.vpn < r.pages;  // wraps to huge when vpn < r.vpn
  });
}

void FarTier::PinRange(std::uint64_t vpn, std::uint64_t pages) {
  lock_.lock();
  pins_.push_back(PinnedRange{vpn, pages});
  lock_.unlock();
}

void FarTier::UnpinRange(std::uint64_t vpn, std::uint64_t pages) {
  lock_.lock();
  auto it = std::find_if(pins_.begin(), pins_.end(), [&](const PinnedRange& r) {
    return r.vpn == vpn && r.pages == pages;
  });
  SVAGC_CHECK(it != pins_.end());
  *it = pins_.back();
  pins_.pop_back();
  lock_.unlock();
}

void FarTier::NoteMapped(std::uint64_t vpn) {
  lock_.lock();
  clock_.NoteResident(vpn);
  ++resident_;
  lock_.unlock();
}

void FarTier::NoteUnitSplit(std::uint64_t unit_vpn) {
  SVAGC_DCHECK((unit_vpn & kIndexMask) == 0);
  lock_.lock();
  for (std::uint64_t i = 0; i < kPagesPerHuge; ++i) {
    clock_.NoteResident(unit_vpn + i);
  }
  resident_ += kPagesPerHuge;
  lock_.unlock();
}

void FarTier::NoteUnmapped(std::uint64_t vpn) {
  lock_.lock();
  clock_.NoteGone(vpn);
  SVAGC_DCHECK(resident_ > 0);
  --resident_;
  lock_.unlock();
}

void FarTier::ReleaseSlot(std::uint64_t slot) {
  lock_.lock();
  far_.FreeSlot(slot);
  lock_.unlock();
}

void FarTier::SetResidentLimit(CpuContext& ctx, std::uint64_t pages,
                               FaultHook* hook) {
  SVAGC_CHECK(pages >= 1);
  lock_.lock();
  config_.resident_limit_pages = pages;
  EvictToLimitLocked(ctx, /*headroom=*/0, hook);
  lock_.unlock();
}

const std::byte* FarTier::SlotBytes(std::uint64_t slot) const {
  lock_.lock();
  const std::byte* bytes = far_.SlotData(slot);
  lock_.unlock();
  return bytes;
}

std::byte* FarTier::WritableSlotBytes(std::uint64_t slot) {
  lock_.lock();
  std::byte* bytes = far_.WritableSlotData(slot);
  lock_.unlock();
  return bytes;
}

}  // namespace svagc::sim
