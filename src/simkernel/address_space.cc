#include "simkernel/address_space.h"
#include <algorithm>

#include <cstring>

#include "simkernel/page_table.h"
#include "simkernel/swapva.h"
#include "support/align.h"

namespace svagc::sim {

PageTable& AddressSpace::page_table() {
  SVAGC_CHECK(table_->backend() == TranslationBackend::kRadix);
  return static_cast<PageTable&>(*table_);
}

AddressSpace::~AddressSpace() {
  // Frames are owned by the shared PhysicalMemory; release what we mapped.
  // Page tables know their mapped count but not the set, so we do not try to
  // enumerate here — HeapSpace/owners call UnmapRange explicitly. Remaining
  // mappings at destruction indicate a leak only in long-lived harnesses, so
  // this is intentionally lenient (like process teardown).
}

void AddressSpace::MapRange(vaddr_t vaddr, std::uint64_t bytes) {
  SVAGC_CHECK(IsAligned(vaddr, kPageSize));
  SVAGC_CHECK(IsAligned(bytes, kPageSize));
  const std::uint64_t pages = bytes >> kPageShift;
  const std::uint64_t vpn0 = vaddr >> kPageShift;
  for (std::uint64_t i = 0; i < pages; ++i) {
    table_->Map(vpn0 + i, phys_.AllocFrame());
    if (far_tier_) far_tier_->NoteMapped(vpn0 + i);
  }
}

void AddressSpace::MapRangeHuge(vaddr_t vaddr, std::uint64_t bytes) {
  SVAGC_CHECK(IsAligned(vaddr, kHugePageSize));
  SVAGC_CHECK(IsAligned(bytes, kHugePageSize));
  const std::uint64_t units = bytes >> kHugePageShift;
  const std::uint64_t vpn0 = vaddr >> kPageShift;
  for (std::uint64_t u = 0; u < units; ++u) {
    table_->MapHuge(vpn0 + u * kPagesPerHuge,
                    phys_.AllocContiguous(kPagesPerHuge));
  }
}

void AddressSpace::UnmapRange(vaddr_t vaddr, std::uint64_t bytes) {
  SVAGC_CHECK(IsAligned(vaddr, kPageSize));
  SVAGC_CHECK(IsAligned(bytes, kPageSize));
  const std::uint64_t pages = bytes >> kPageShift;
  const std::uint64_t vpn0 = vaddr >> kPageShift;
  for (std::uint64_t i = 0; i < pages;) {
    const std::uint64_t vpn = vpn0 + i;
    // A whole huge-mapped unit inside the range comes out at PMD
    // granularity; everything else (split units, partial coverage) is 4 KiB.
    if ((vpn & kIndexMask) == 0 && pages - i >= kPagesPerHuge &&
        table_->LookupHuge(vpn).has_value()) {
      const frame_t base = table_->UnmapHuge(vpn);
      for (std::uint64_t f = 0; f < kPagesPerHuge; ++f) {
        phys_.FreeFrame(base + f);
      }
      i += kPagesPerHuge;
    } else {
      const Pte pte = table_->LookupPte(vpn);
      const frame_t frame = table_->Unmap(vpn);
      if (frame != kInvalidFrame) {
        phys_.FreeFrame(frame);
        if (far_tier_) far_tier_->NoteUnmapped(vpn);
      } else {
        // The page was swapped out: no frame to free, but its far slot
        // must return to the allocator (the slot bijection invariant).
        SVAGC_CHECK(pte.swapped() && far_tier_ != nullptr);
        far_tier_->ReleaseSlot(pte.swap_slot());
      }
      ++i;
    }
  }
}

void AddressSpace::EnableFarTier(Kernel& kernel, CpuContext& ctx,
                                 const FarTierConfig& config) {
  SVAGC_CHECK(far_tier_ == nullptr);
  fault_kernel_ = &kernel;
  far_tier_ =
      std::make_unique<FarTier>(machine_, phys_, *table_, asid_, config);
  // Enforce the limit now: the coldest pages (in clock-seed order — no
  // access history exists yet) demote until the near tier fits.
  far_tier_->SetResidentLimit(ctx, config.resident_limit_pages,
                              kernel.fault_hook());
}

void AddressSpace::EnsureResident(CpuContext& ctx, vaddr_t vaddr,
                                  std::uint64_t bytes, FaultIntent intent) {
  if (far_tier_ == nullptr || bytes == 0) return;
  const vaddr_t end = vaddr + bytes;
  const std::uint64_t vpn0 = vaddr >> kPageShift;
  const std::uint64_t vpn1 = (end - 1) >> kPageShift;
  for (std::uint64_t vpn = vpn0; vpn <= vpn1; ++vpn) {
    if (!table_->LookupPte(vpn).swapped()) continue;
    const vaddr_t page = vpn << kPageShift;
    const bool whole = page >= vaddr && page + kPageSize <= end;
    fault_kernel_->SysHandleFault(*this, ctx, page,
                                  whole ? intent : FaultIntent::kAccess);
  }
}

frame_t AddressSpace::HwFrame(CpuContext& ctx, vaddr_t vaddr) {
  const std::uint64_t vpn = vaddr >> kPageShift;
  Tlb& tlb = machine_.tlb(ctx.core_id);
  const auto result = tlb.Lookup(asid_, vpn);
  frame_t frame;
  if (result.hit) {
    ctx.account.Charge(CostKind::kTlbHit, machine_.cost().tlb_hit);
    frame = result.frame;
    // A hit that disagrees with the page table means a TLB shootdown was
    // skipped where it was required — the bug class SwapVA must avoid.
    SVAGC_DCHECK(table_->Lookup(vpn).has_value() &&
                 *table_->Lookup(vpn) == frame);
  } else {
    Translation::HugeTranslation huge;
    auto walked =
        table_->HardwareWalk(vpn, ctx.account, machine_.cost(), &huge);
    if (!walked.has_value() && far_tier_ != nullptr &&
        table_->LookupPte(vpn).swapped()) {
      // Swapped-out page: the walk misses by design. Trap to the userspace
      // fault handler, which swaps the page in, then re-walk.
      fault_kernel_->SysHandleFault(*this, ctx, vaddr);
      walked = table_->HardwareWalk(vpn, ctx.account, machine_.cost(), &huge);
    }
    SVAGC_CHECK(walked.has_value());
    frame = *walked;
    if (huge.huge) {
      // One TLB entry covers the whole 2 MiB unit — the dTLB-reach win.
      tlb.InsertHuge(asid_, vpn & ~kIndexMask, huge.unit_base_frame);
    } else {
      tlb.Insert(asid_, vpn, frame);
    }
  }
  if (far_tier_ != nullptr) far_tier_->Touch(vpn);
  return frame;
}

const std::byte* AddressSpace::RawPtr(vaddr_t vaddr) const {
  const auto frame = table_->Lookup(vaddr >> kPageShift);
  if (!frame.has_value()) return SwappedBytes(vaddr);
  return phys_.FrameData(*frame) + (vaddr & (kPageSize - 1));
}

std::byte* AddressSpace::RawWritePtr(vaddr_t vaddr) {
  const auto frame = table_->Lookup(vaddr >> kPageShift);
  if (!frame.has_value()) return WritableSwappedBytes(vaddr);
  return phys_.WritableFrameData(*frame) + (vaddr & (kPageSize - 1));
}

const std::byte* AddressSpace::SwappedBytes(vaddr_t vaddr) const {
  // Uncosted read-through to the far tier: harness-internal readers
  // (heap digests, snapshot/restore, the verifier) observe identical
  // bytes whether a page is resident or swapped — residency is a
  // performance state, never a semantic one.
  const Pte pte = table_->LookupPte(vaddr >> kPageShift);
  SVAGC_CHECK(far_tier_ != nullptr && pte.swapped());
  return far_tier_->SlotBytes(pte.swap_slot()) + (vaddr & (kPageSize - 1));
}

std::byte* AddressSpace::WritableSwappedBytes(vaddr_t vaddr) {
  const Pte pte = table_->LookupPte(vaddr >> kPageShift);
  SVAGC_CHECK(far_tier_ != nullptr && pte.swapped());
  return far_tier_->WritableSlotBytes(pte.swap_slot()) +
         (vaddr & (kPageSize - 1));
}

namespace {

// Pins a byte range's pages for a scope (get_user_pages around a kernel
// copy): a concurrent worker's fault-triggered eviction must not steal a
// frame mid-copy — the tier's copy-out would race the copy's writes and
// tear them. No-op without a far tier.
class ScopedTierPin {
 public:
  ScopedTierPin(FarTier* tier, vaddr_t vaddr, std::uint64_t bytes)
      : tier_(tier) {
    if (tier_ == nullptr || bytes == 0) {
      tier_ = nullptr;
      return;
    }
    vpn_ = vaddr >> kPageShift;
    pages_ = ((vaddr + bytes - 1) >> kPageShift) - vpn_ + 1;
    tier_->PinRange(vpn_, pages_);
  }
  ~ScopedTierPin() {
    if (tier_ != nullptr) tier_->UnpinRange(vpn_, pages_);
  }
  ScopedTierPin(const ScopedTierPin&) = delete;
  ScopedTierPin& operator=(const ScopedTierPin&) = delete;

 private:
  FarTier* tier_;
  std::uint64_t vpn_ = 0;
  std::uint64_t pages_ = 0;
};

}  // namespace

void AddressSpace::CopyBytes(CpuContext& ctx, vaddr_t dst, vaddr_t src,
                             std::uint64_t bytes, CopyLocality locality) {
  if (bytes == 0 || dst == src) return;
  // Pin BEFORE faulting resident, so a page brought in for this copy cannot
  // be re-evicted by a concurrent worker before (or while) its chunk moves.
  ScopedTierPin pin_src(far_tier_.get(), src, bytes);
  ScopedTierPin pin_dst(far_tier_.get(), dst, bytes);
  // The copy path must pay the far-tier freight for any page it touches
  // (fault + far read, plus an eviction's far write when over the limit) —
  // the cost a SwapVA relink of a swapped entry never incurs.
  EnsureResident(ctx, src, bytes);
  EnsureResident(ctx, dst, bytes);
  // Modeled cost: streaming read + write at the profile's copy throughput,
  // inflated by bandwidth contention when many contexts copy concurrently.
  const CostProfile& cost = machine_.cost();
  double per_byte;
  switch (locality) {
    case CopyLocality::kCold:
      per_byte = cost.copy_per_byte_dram;
      break;
    case CopyLocality::kHot:
      per_byte = cost.copy_per_byte_cached;
      break;
    case CopyLocality::kAuto:
    default:
      per_byte = cost.CopyCyclesPerByte(bytes);
      break;
  }
  ctx.account.Charge(CostKind::kCopy,
                     static_cast<double>(bytes) * per_byte *
                         machine_.BandwidthContentionFactor());
  if (trace_ != nullptr) {
    trace_->OnAccess(src, static_cast<std::uint32_t>(
                              std::min<std::uint64_t>(bytes, ~0U)),
                     /*is_write=*/false);
    trace_->OnAccess(dst, static_cast<std::uint32_t>(
                              std::min<std::uint64_t>(bytes, ~0U)),
                     /*is_write=*/true);
  }

  // Real data movement, page-safe, with memmove overlap semantics.
  const bool forward = dst < src;
  std::uint64_t remaining = bytes;
  vaddr_t s = forward ? src : src + bytes;
  vaddr_t d = forward ? dst : dst + bytes;
  while (remaining > 0) {
    std::uint64_t chunk;
    if (forward) {
      const std::uint64_t s_room = kPageSize - (s & (kPageSize - 1));
      const std::uint64_t d_room = kPageSize - (d & (kPageSize - 1));
      chunk = std::min({remaining, s_room, d_room});
      std::memmove(RawWritePtr(d), RawPtr(s), chunk);
      phys_.NoteBytesWritten(chunk);
      s += chunk;
      d += chunk;
    } else {
      // Backward: `s`/`d` point one past the chunk end.
      const std::uint64_t s_room = ((s - 1) & (kPageSize - 1)) + 1;
      const std::uint64_t d_room = ((d - 1) & (kPageSize - 1)) + 1;
      chunk = std::min({remaining, s_room, d_room});
      s -= chunk;
      d -= chunk;
      std::memmove(RawWritePtr(d), RawPtr(s), chunk);
      phys_.NoteBytesWritten(chunk);
    }
    remaining -= chunk;
  }
}

void AddressSpace::ZeroBytes(CpuContext& ctx, vaddr_t dst,
                             std::uint64_t bytes) {
  if (bytes == 0) return;
  ScopedTierPin pin_dst(far_tier_.get(), dst, bytes);
  // Pinned first, so a page faulted in without its bytes stays resident
  // until the loop below has zeroed it.
  EnsureResident(ctx, dst, bytes, FaultIntent::kOverwrite);
  const CostProfile& cost = machine_.cost();
  // Zeroing streams half the traffic of a copy (write-only).
  ctx.account.Charge(CostKind::kAlloc,
                     static_cast<double>(bytes) *
                         cost.CopyCyclesPerByte(bytes) * 0.5 *
                         machine_.BandwidthContentionFactor());
  if (trace_ != nullptr) {
    trace_->OnAccess(dst, static_cast<std::uint32_t>(
                              std::min<std::uint64_t>(bytes, ~0U)),
                     /*is_write=*/true);
  }
  std::uint64_t remaining = bytes;
  vaddr_t d = dst;
  while (remaining > 0) {
    const std::uint64_t offset = d & (kPageSize - 1);
    const std::uint64_t chunk = std::min(remaining, kPageSize - offset);
    // The pin and EnsureResident keep every page of the range resident.
    const std::optional<frame_t> frame = table_->Lookup(d >> kPageShift);
    SVAGC_CHECK(frame.has_value());
    if (phys_.KnownZero(*frame)) {
      SVAGC_DCHECK(std::all_of(phys_.FrameData(*frame) + offset,
                               phys_.FrameData(*frame) + offset + chunk,
                               [](std::byte b) { return b == std::byte{0}; }));
    } else {
      std::memset(phys_.WritableFrameData(*frame) + offset, 0, chunk);
      if (chunk == kPageSize) phys_.MarkKnownZero(*frame);
    }
    phys_.NoteBytesWritten(chunk);
    d += chunk;
    remaining -= chunk;
  }
}

void AddressSpace::StreamTouch(CpuContext& ctx, vaddr_t vaddr,
                               std::uint64_t bytes, double cycles_per_byte,
                               bool is_write) {
  if (bytes == 0) return;
  ctx.account.Charge(CostKind::kCompute,
                     static_cast<double>(bytes) * cycles_per_byte *
                         machine_.BandwidthContentionFactor());
  if (trace_ != nullptr) {
    trace_->OnAccess(vaddr, static_cast<std::uint32_t>(
                                std::min<std::uint64_t>(bytes, ~0U)),
                     is_write);
  }
  const vaddr_t first = AlignDown(vaddr, kPageSize);
  for (vaddr_t page = first; page < vaddr + bytes; page += kPageSize) {
    (void)HwPtr(ctx, page);
  }
}

}  // namespace svagc::sim
