#include "simkernel/swapva.h"

#include <numeric>
#include <utility>
#include <vector>

#include "support/align.h"

namespace svagc::sim {

namespace {

// Algorithm 2's FINDSWAPPLACE: the rotation permutation over a span of
// `pages + delta` pages. sigma(i) = (i - delta) mod (pages + delta).
std::uint64_t FindSwapPlace(std::uint64_t i, std::uint64_t delta,
                            std::uint64_t pages) {
  return i < delta ? i + pages : i - delta;
}

}  // namespace

SysStatus Kernel::ValidatePinned(CpuContext& ctx, const SwapVaOptions& opts) {
  if (opts.tlb_policy != TlbPolicy::kLocalOnly || !ctx.pin_declared) {
    return SysStatus::kOk;
  }
  if (Inject(FaultPoint::kForceUnpin)) ctx.pinned = false;
  if (!ctx.pinned) {
    ctr_not_pinned_.Add();
    return SysStatus::kNotPinned;
  }
  return SysStatus::kOk;
}

void Kernel::DrainPmdTally(const PmdCache* cache) {
  if (cache == nullptr) return;
  if (cache->hits != 0) ctr_pmd_hits_.Add(cache->hits);
  if (cache->misses != 0) ctr_pmd_misses_.Add(cache->misses);
}

SysStatus Kernel::SysSwapVa(AddressSpace& as, CpuContext& ctx, vaddr_t a,
                            vaddr_t b, std::uint64_t pages,
                            const SwapVaOptions& opts) {
  ctx.account.Charge(CostKind::kSyscall, machine_.cost().syscall_entry);
  ctr_calls_.Add();
  const SysStatus pin_status = ValidatePinned(ctx, opts);
  if (pin_status != SysStatus::kOk) return pin_status;
  if (pages == 0 || a == b) return SysStatus::kOk;
  SVAGC_CHECK(IsAligned(a, kPageSize) && IsAligned(b, kPageSize));
  if (Inject(FaultPoint::kSwapVaFault)) return SysStatus::kFault;
  const vaddr_t lo = a < b ? a : b;
  const vaddr_t hi = a < b ? b : a;
  if (hi - lo < pages * kPageSize) {
    SwapOverlap(as, ctx, lo, hi, pages, opts);
  } else {
    const SysStatus status = SwapDisjoint(as, ctx, a, b, pages, opts);
    // A huge-swap fault rolled the PMD half back: semantically no work was
    // done, so — as with kSwapVaFault — nothing needs flushing.
    if (status != SysStatus::kOk) return status;
    ApplyEndOfCallFlush(as, ctx, opts);
    return SysStatus::kOk;
  }
  // Overlap path flushed page-by-page locally; remote coherence still needs
  // the policy's shootdown.
  if (opts.tlb_policy == TlbPolicy::kGlobalPerCall &&
      !Inject(FaultPoint::kDropTlbShootdown)) {
    machine_.SendTlbShootdown(ctx, as.asid());
  }
  return SysStatus::kOk;
}

SwapVecResult Kernel::SysSwapVaVec(AddressSpace& as, CpuContext& ctx,
                                   std::span<const SwapRequest> requests,
                                   const SwapVaOptions& opts) {
  // One kernel entry for the whole batch — the aggregation of Fig. 5(b).
  ctx.account.Charge(CostKind::kSyscall, machine_.cost().syscall_entry);
  ctr_calls_.Add();
  SwapVecResult result;
  const SysStatus pin_status = ValidatePinned(ctx, opts);
  if (pin_status != SysStatus::kOk) {
    result.status = pin_status;
    return result;
  }
  bool any = false;
  for (const SwapRequest& req : requests) {
    if (req.pages == 0 || req.a == req.b) {
      ++result.completed;  // trivially satisfied
      continue;
    }
    SVAGC_CHECK(IsAligned(req.a, kPageSize) && IsAligned(req.b, kPageSize));
    if (Inject(FaultPoint::kSwapVaFault)) {
      // Partial completion: the applied prefix must still be made coherent
      // before control returns to user space.
      if (any) ApplyEndOfCallFlush(as, ctx, opts);
      result.status = SysStatus::kFault;
      return result;
    }
    const vaddr_t lo = req.a < req.b ? req.a : req.b;
    const vaddr_t hi = req.a < req.b ? req.b : req.a;
    if (hi - lo < req.pages * kPageSize) {
      SwapOverlap(as, ctx, lo, hi, req.pages, opts);
    } else {
      const SysStatus status =
          SwapDisjoint(as, ctx, req.a, req.b, req.pages, opts);
      if (status != SysStatus::kOk) {
        // The faulting request was rolled back; the applied prefix still
        // needs its flush (per-request atomicity, as for kSwapVaFault).
        if (any) ApplyEndOfCallFlush(as, ctx, opts);
        result.status = status;
        return result;
      }
    }
    any = true;
    ++result.completed;
  }
  if (any) ApplyEndOfCallFlush(as, ctx, opts);
  return result;
}

void Kernel::SysFlushProcessTlbs(AddressSpace& as, CpuContext& ctx) {
  ctx.account.Charge(CostKind::kSyscall, machine_.cost().syscall_entry);
  ctr_flush_process_.Add();
  if (Inject(FaultPoint::kSpuriousLocalFlush)) {
    // Wrong-asid flush: costs the same, invalidates nothing of ours.
    machine_.FlushLocalTlb(ctx, as.asid() ^ (1ULL << 63));
  } else {
    machine_.FlushLocalTlb(ctx, as.asid());
  }
  if (!Inject(FaultPoint::kDropTlbShootdown)) {
    machine_.SendTlbShootdown(ctx, as.asid());
  }
}

SysStatus Kernel::SysFlushFleetTlbs(std::span<AddressSpace* const> spaces,
                                    CpuContext& ctx) {
  ctx.account.Charge(CostKind::kSyscall, machine_.cost().syscall_entry);
  ctr_flush_fleet_.Add();
  std::vector<std::uint64_t> asids;
  asids.reserve(spaces.size());
  for (AddressSpace* as : spaces) {
    SVAGC_CHECK(as != nullptr);
    machine_.FlushLocalTlb(ctx, as->asid());
    asids.push_back(as->asid());
  }
  if (Inject(FaultPoint::kDropEpochBroadcast)) return SysStatus::kFault;
  machine_.SendTlbShootdownMulti(ctx, asids);
  return SysStatus::kOk;
}

SysStatus Kernel::SysPin(CpuContext& ctx) {
  ctx.account.Charge(CostKind::kSyscall, machine_.cost().syscall_entry);
  ctr_pin_calls_.Add();
  if (Inject(FaultPoint::kRefusePin)) {
    ctx.pinned = false;
    ctr_pin_refused_.Add();
    return SysStatus::kPinRefused;
  }
  ctx.pinned = true;
  ctx.pin_declared = true;
  return SysStatus::kOk;
}

void Kernel::SysUnpin(CpuContext& ctx) {
  ctx.account.Charge(CostKind::kSyscall, machine_.cost().syscall_entry);
  ctr_unpin_calls_.Add();
  ctx.pinned = false;
}

Translation::PteRef Kernel::LeafForPteSwap(AddressSpace& as,
                                           std::uint64_t vpn, CpuContext& ctx,
                                           PmdCache* cache) {
  Translation::PteRef ref = as.translation().LeafForPteSwap(
      vpn, ctx.account, machine_.cost(), cache);
  if (ref.split_huge) {
    // THP-style demotion: the unit loses its huge leaf and gains 512 leaf
    // entries, all of which are real entry writes — charged identically
    // whichever backend performed the split.
    ctx.account.Charge(CostKind::kPteUpdate,
                       kEntriesPerTable * machine_.cost().pte_update);
    ctr_pmd_splits_.Add();
    if (as.far_tier() != nullptr) {
      as.far_tier()->NoteUnitSplit(vpn & ~kIndexMask);
    }
  }
  SVAGC_CHECK(ref.slot != nullptr && ref.lock != nullptr);
  return ref;
}

SysStatus Kernel::SwapDisjoint(AddressSpace& as, CpuContext& ctx, vaddr_t a,
                               vaddr_t b, std::uint64_t pages,
                               const SwapVaOptions& opts) {
  Translation& table = as.translation();
  const CostProfile& cost = machine_.cost();
  // Two independent PMD caches: the source and destination streams each walk
  // sequentially through their own 2 MiB regions (Fig. 7). Backends without
  // a directory walk ignore them.
  PmdCache cache_a, cache_b;
  PmdCache* pca = opts.pmd_caching ? &cache_a : nullptr;
  PmdCache* pcb = opts.pmd_caching ? &cache_b : nullptr;

  const std::uint64_t vpn_a0 = a >> kPageShift;
  const std::uint64_t vpn_b0 = b >> kPageShift;

  // Unit fast path: both ranges 2 MiB-aligned and the backend can relink
  // whole units — exchange per-unit entries (1 entry write per 2 MiB instead
  // of 512), then fall through to the PTE loop for the sub-unit tail. The
  // radix backend always can (PMD slots swap wholesale); the hashed backend
  // only when every covered unit is huge-class.
  std::uint64_t pmd_units = 0;
  if (opts.pmd_swapping && IsAligned(a, kHugePageSize) &&
      IsAligned(b, kHugePageSize) &&
      table.CanExchangeUnits(vpn_a0, vpn_b0, pages / kPagesPerHuge)) {
    pmd_units = pages / kPagesPerHuge;
    for (std::uint64_t u = 0; u < pmd_units; ++u) {
      table.ExchangeUnits(vpn_a0 + u * kPagesPerHuge,
                          vpn_b0 + u * kPagesPerHuge, ctx.account, cost, pca,
                          pcb);
      // pmd_offset read on both sides, one lock, one entry-write exchange.
      ctx.account.Charge(CostKind::kPageWalk, 2 * cost.pte_access);
      ctx.account.Charge(CostKind::kPteLock, cost.pte_lock_pair);
      ctx.account.Charge(CostKind::kPteUpdate, cost.pte_update);
    }
    // Injection opportunity between the PMD-swap half and the PTE-fallback
    // half of a huge-range request.
    if (pmd_units > 0 && Inject(FaultPoint::kHugeSwapFault)) {
      // Unit exchanges are involutions: re-applying them restores the
      // original mappings, making the faulted request all-or-nothing. The
      // undo writes are real entry writes and charged as such.
      for (std::uint64_t u = pmd_units; u-- > 0;) {
        table.ExchangeUnits(vpn_a0 + u * kPagesPerHuge,
                            vpn_b0 + u * kPagesPerHuge, ctx.account, cost, pca,
                            pcb);
        ctx.account.Charge(CostKind::kPteUpdate, cost.pte_update);
      }
      DrainPmdTally(pca);
      DrainPmdTally(pcb);
      return SysStatus::kFault;
    }
  }

  const std::uint64_t first_page = pmd_units * kPagesPerHuge;
  std::uint64_t swapped_relinks = 0;
  for (std::uint64_t i = first_page; i < pages; ++i) {
    const std::uint64_t vpn_a = vpn_a0 + i;
    const std::uint64_t vpn_b = vpn_b0 + i;
    const Translation::PteRef ref_a = LeafForPteSwap(as, vpn_a, ctx, pca);
    const Translation::PteRef ref_b = LeafForPteSwap(as, vpn_b, ctx, pcb);
    // pte_offset_map_lock on both PTEs; same-leaf pairs share one split-PTL
    // and cross-leaf pairs are locked in address order (deadlock-free
    // against concurrent GC workers — OrderLeafLocks asserts the ordering).
    ctx.account.Charge(CostKind::kPageWalk, 2 * cost.pte_access);
    ctx.account.Charge(CostKind::kPteLock, 2 * cost.pte_lock_pair);
    const OrderedLockPair locks = OrderLeafLocks(ref_a.lock, ref_b.lock);
    locks.first->lock();
    if (locks.second != nullptr) locks.second->lock();

    // Populated entries only — but a swapped-out entry is as swappable as a
    // present one: the leaf word carries the slot index, so the exchange
    // relinks the far-tier page with zero far-tier copy cycles (the
    // headline win of the tier design).
    SVAGC_CHECK(ref_a.slot->present() || ref_a.slot->swapped());
    SVAGC_CHECK(ref_b.slot->present() || ref_b.slot->swapped());
    if (ref_a.slot->swapped()) ++swapped_relinks;
    if (ref_b.slot->swapped()) ++swapped_relinks;
    std::swap(ref_a.slot->value, ref_b.slot->value);
    ctx.account.Charge(CostKind::kPteUpdate, cost.pte_update);

    if (locks.second != nullptr) locks.second->unlock();
    locks.first->unlock();
  }
  if (opts.scrub_source) {
    // Zero the frames now mapped under `a` (the relinquished destination
    // frames): kernel-side clear_page loop, charged like allocation zeroing.
    as.ZeroBytes(ctx, a, pages << kPageShift);
  }
  ctr_pages_.Add(pages);
  if (pmd_units != 0) ctr_pmd_swaps_.Add(pmd_units);
  const std::uint64_t tail_pages = pages - first_page;
  if (tail_pages != 0) ctr_pte_swaps_.Add(tail_pages);
  if (swapped_relinks != 0) ctr_tier_relinks_.Add(swapped_relinks);
  DrainPmdTally(pca);
  DrainPmdTally(pcb);
  return SysStatus::kOk;
}

void Kernel::SwapOverlap(AddressSpace& as, CpuContext& ctx, vaddr_t lo,
                         vaddr_t hi, std::uint64_t pages,
                         const SwapVaOptions& opts) {
  Translation& table = as.translation();
  const CostProfile& cost = machine_.cost();
  Tlb& local_tlb = machine_.tlb(ctx.core_id);
  PmdCache cache;
  PmdCache* pc = opts.pmd_caching ? &cache : nullptr;

  const std::uint64_t delta = (hi - lo) >> kPageShift;  // addIdx2
  const std::uint64_t span = pages + delta;             // pages touched
  const std::uint64_t vpn0 = lo >> kPageShift;

  // PMD-granule rotation: when the whole span is 2 MiB-granular and every
  // unit still carries a huge leaf, rotate the PMD entries themselves — one
  // entry write and one invalidation per 2 MiB. The all-huge requirement
  // guarantees no 4 KiB TLB entries cover the span on this core, so the
  // per-unit flush is exactly the right invalidation granularity.
  if (opts.pmd_swapping && IsAligned(lo, kHugePageSize) &&
      IsAligned(hi, kHugePageSize) && pages % kPagesPerHuge == 0) {
    const std::uint64_t units = pages / kPagesPerHuge;
    const std::uint64_t delta_u = delta / kPagesPerHuge;
    const std::uint64_t span_u = units + delta_u;
    bool all_huge = true;
    for (std::uint64_t u = 0; u < span_u && all_huge; ++u) {
      all_huge = table.LookupHuge(vpn0 + u * kPagesPerHuge).has_value();
    }
    if (all_huge) {
      const std::uint64_t cycles = std::gcd(delta_u, units);
      // All-huge means no 4 KiB granularity exists anywhere in the span, so
      // rotating the huge leaf values IS the whole exchange (the radix
      // backend's PteTable slots are all null; the hashed backend's page
      // class holds no nodes for these units).
      auto unit_entry = [&](std::uint64_t u) -> Pte* {
        Pte* entry = table.HugeEntryForSwap(vpn0 + u * kPagesPerHuge,
                                            ctx.account, cost, pc);
        ctx.account.Charge(CostKind::kPageWalk, cost.pte_access);
        return entry;
      };
      auto flush_unit = [&](std::uint64_t u) {
        ctx.account.Charge(CostKind::kTlbFlushPage, cost.tlb_flush_page);
        local_tlb.FlushPage(as.asid(), vpn0 + u * kPagesPerHuge);
      };
      for (std::uint64_t cur = 0; cur < cycles; ++cur) {
        Pte* e_cur = unit_entry(cur);
        Pte temp = *e_cur;
        std::uint64_t k = FindSwapPlace(cur, delta_u, units);
        while (k != cur) {
          Pte* e_k = unit_entry(k);
          const Pte k_temp = *e_k;
          *e_k = temp;
          ctx.account.Charge(CostKind::kPteUpdate, cost.pte_update);
          flush_unit(k);
          temp = k_temp;
          k = FindSwapPlace(k, delta_u, units);
        }
        *e_cur = temp;
        ctx.account.Charge(CostKind::kPteUpdate, cost.pte_update);
        flush_unit(cur);
      }
      ctr_pages_.Add(span);
      ctr_pmd_swaps_.Add(span_u);
      DrainPmdTally(pc);
      return;
    }
  }

  const std::uint64_t cycles = std::gcd(delta, pages);  // upCurIdx

  auto locked_pte_value = [&](std::uint64_t idx) -> Pte* {
    const Translation::PteRef ref = LeafForPteSwap(as, vpn0 + idx, ctx, pc);
    // pte_offset_map_lock; single-writer phase, lock pairs as in Alg. 1.
    ctx.account.Charge(CostKind::kPageWalk, cost.pte_access);
    ctx.account.Charge(CostKind::kPteLock, cost.pte_lock_pair);
    ref.lock->lock();
    ref.lock->unlock();
    return ref.slot;
  };
  auto flush_page = [&](std::uint64_t idx) {
    ctx.account.Charge(CostKind::kTlbFlushPage, cost.tlb_flush_page);
    local_tlb.FlushPage(as.asid(), vpn0 + idx);
  };

  // A rotation moves leaf words whatever their residency state: swapped
  // entries ride along carrying their slot index, relinking far-tier pages
  // without any far-tier traffic. Tally one relink per swapped value
  // installed at a new location.
  std::uint64_t swapped_relinks = 0;
  for (std::uint64_t cur = 0; cur < cycles; ++cur) {
    Pte* pte_cur = locked_pte_value(cur);
    Pte temp = *pte_cur;
    std::uint64_t k = FindSwapPlace(cur, delta, pages);
    while (k != cur) {
      Pte* pte_k = locked_pte_value(k);
      const Pte k_temp = *pte_k;
      if (temp.swapped()) ++swapped_relinks;
      *pte_k = temp;
      ctx.account.Charge(CostKind::kPteUpdate, cost.pte_update);
      flush_page(k);
      temp = k_temp;
      k = FindSwapPlace(k, delta, pages);
    }
    if (temp.swapped()) ++swapped_relinks;
    *pte_cur = temp;
    ctx.account.Charge(CostKind::kPteUpdate, cost.pte_update);
    flush_page(cur);
  }
  ctr_pages_.Add(span);
  ctr_pte_swaps_.Add(span);
  if (swapped_relinks != 0) ctr_tier_relinks_.Add(swapped_relinks);
  DrainPmdTally(pc);
}

void Kernel::SysHandleFault(AddressSpace& as, CpuContext& ctx, vaddr_t vaddr,
                            FaultIntent intent) {
  FarTier* tier = as.far_tier();
  SVAGC_CHECK(tier != nullptr);
  tier->HandleFault(ctx, vaddr >> kPageShift, fault_hook_, intent);
}

std::uint64_t Kernel::SysMadviseCold(AddressSpace& as, CpuContext& ctx,
                                     vaddr_t vaddr, std::uint64_t bytes) {
  ctx.account.Charge(CostKind::kSyscall, machine_.cost().syscall_entry);
  ctr_madvise_cold_.Add();
  FarTier* tier = as.far_tier();
  if (tier == nullptr || bytes == 0) return 0;
  SVAGC_CHECK(IsAligned(vaddr, kPageSize));
  Translation& table = as.translation();
  const std::uint64_t vpn0 = vaddr >> kPageShift;
  // Only fully covered pages demote (madvise rounds inward).
  const std::uint64_t pages = bytes >> kPageShift;
  std::uint64_t demoted = 0;
  for (std::uint64_t i = 0; i < pages; ++i) {
    const std::uint64_t vpn = vpn0 + i;
    // Huge-mapped units never enter the tier; LookupPte synthesizes a
    // present entry for them, so check the unit class first.
    if (table.LookupHuge(vpn).has_value()) continue;
    if (!table.LookupPte(vpn).present()) continue;  // already cold or empty
    if (tier->SwapOut(ctx, vpn, fault_hook_)) ++demoted;
  }
  return demoted;
}

void Kernel::SysSetResidencyLimit(AddressSpace& as, CpuContext& ctx,
                                  std::uint64_t pages) {
  ctx.account.Charge(CostKind::kSyscall, machine_.cost().syscall_entry);
  FarTier* tier = as.far_tier();
  SVAGC_CHECK(tier != nullptr);
  tier->SetResidentLimit(ctx, pages, fault_hook_);
}

void Kernel::ApplyEndOfCallFlush(AddressSpace& as, CpuContext& ctx,
                                 const SwapVaOptions& opts) {
  // flush_tlb_local(pid) — Algorithm 1 line 19.
  if (Inject(FaultPoint::kSpuriousLocalFlush)) {
    machine_.FlushLocalTlb(ctx, as.asid() ^ (1ULL << 63));
  } else {
    machine_.FlushLocalTlb(ctx, as.asid());
  }
  if (opts.tlb_policy == TlbPolicy::kGlobalPerCall &&
      !Inject(FaultPoint::kDropTlbShootdown)) {
    // Unoptimized coherence: every call shoots down every other core.
    machine_.SendTlbShootdown(ctx, as.asid());
  }
}

}  // namespace svagc::sim
