// A process address space: translation structure + frames, with
// TLB-accounted and raw translation paths plus page-safe bulk copy (the
// GC's memmove). The translation backend (radix vs hashed) comes from the
// machine's configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "simkernel/config.h"
#include "simkernel/far_memory.h"
#include "simkernel/machine.h"
#include "simkernel/phys_mem.h"
#include "simkernel/trace.h"
#include "simkernel/translation.h"
#include "support/check.h"

namespace svagc::sim {

class PageTable;
class Kernel;

class AddressSpace {
 public:
  AddressSpace(Machine& machine, PhysicalMemory& phys)
      : machine_(machine),
        phys_(phys),
        asid_(machine.NextAsid()),
        table_(MakeTranslation(machine.translation_backend(), asid_,
                               &machine.metrics())) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;
  ~AddressSpace();

  Machine& machine() { return machine_; }
  PhysicalMemory& phys() { return phys_; }
  Translation& translation() { return *table_; }
  const Translation& translation() const { return *table_; }
  // Radix-only access for callers that need the concrete tree (legacy tests,
  // PMD introspection); aborts under any other backend.
  PageTable& page_table();
  std::uint64_t asid() const { return asid_; }

  // Eagerly maps [vaddr, vaddr+bytes), allocating fresh frames. vaddr and
  // bytes must be page-aligned (mmap semantics).
  void MapRange(vaddr_t vaddr, std::uint64_t bytes);
  // Maps [vaddr, vaddr+bytes) with 2 MiB PMD leaves over contiguous frames
  // (MAP_HUGETLB semantics); vaddr and bytes must be 2 MiB-aligned.
  void MapRangeHuge(vaddr_t vaddr, std::uint64_t bytes);
  // Tears down either kind of mapping: units still covered by a huge leaf
  // are unmapped at PMD granularity, split units page-by-page.
  void UnmapRange(vaddr_t vaddr, std::uint64_t bytes);
  bool IsMapped(vaddr_t vaddr) const {
    return table_->Lookup(vaddr >> kPageShift).has_value();
  }

  // TLB-accounted translation: models what the hardware does on the given
  // core. Debug builds assert the TLB entry matches the live page table, so
  // a missing shootdown is a hard failure, not silent corruption.
  const std::byte* HwPtr(CpuContext& ctx, vaddr_t vaddr) {
    return phys_.FrameData(HwFrame(ctx, vaddr)) + (vaddr & (kPageSize - 1));
  }

  // Uncosted translation for harness-internal work (verifier, tests, object
  // construction bookkeeping). Read-only: writes go through WriteWord or
  // RawWritePtr, which keep the frame's known-zero flag honest.
  const std::byte* RawPtr(vaddr_t vaddr) const;
  // Uncosted writable translation, valid up to the end of vaddr's page. A
  // resident page's frame stops being known zero; a swapped page's bytes
  // are its far slot's own, zero-filled first if the slot was a zero slot.
  std::byte* RawWritePtr(vaddr_t vaddr);

  // 8-byte-aligned word access. Word accesses never straddle pages because
  // the page size is a multiple of 8 and addresses are 8-aligned; the
  // managed runtime stores everything as words.
  std::uint64_t ReadWord(vaddr_t vaddr) const {
    SVAGC_DCHECK((vaddr & 7) == 0);
    return *reinterpret_cast<const std::uint64_t*>(RawPtr(vaddr));
  }
  void WriteWord(vaddr_t vaddr, std::uint64_t value) {
    SVAGC_DCHECK((vaddr & 7) == 0);
    *reinterpret_cast<std::uint64_t*>(RawWritePtr(vaddr)) = value;
  }

  // TLB-accounted word access for mutator code paths.
  std::uint64_t ReadWordHw(CpuContext& ctx, vaddr_t vaddr) {
    SVAGC_DCHECK((vaddr & 7) == 0);
    if (trace_ != nullptr) trace_->OnAccess(vaddr, 8, /*is_write=*/false);
    return *reinterpret_cast<const std::uint64_t*>(HwPtr(ctx, vaddr));
  }
  void WriteWordHw(CpuContext& ctx, vaddr_t vaddr, std::uint64_t value) {
    SVAGC_DCHECK((vaddr & 7) == 0);
    if (trace_ != nullptr) trace_->OnAccess(vaddr, 8, /*is_write=*/true);
    *reinterpret_cast<std::uint64_t*>(
        phys_.WritableFrameData(HwFrame(ctx, vaddr)) +
        (vaddr & (kPageSize - 1))) = value;
  }

  // Cache residency assumption for bulk-copy cost. kAuto decides by the
  // single operation's size; GC compaction passes kCold because it streams
  // the whole heap within one pause — in the paper's multi-GiB heaps no
  // object is cache-resident when its turn to move comes, and the scaled
  // heaps here must not accidentally model LLC-warm compaction.
  enum class CopyLocality { kAuto, kCold, kHot };

  // memmove over the virtual address space: really copies frame bytes,
  // charges modeled copy cycles (with the machine's bandwidth-contention
  // factor) and handles overlapping ranges with memmove semantics.
  void CopyBytes(CpuContext& ctx, vaddr_t dst, vaddr_t src, std::uint64_t bytes,
                 CopyLocality locality = CopyLocality::kAuto);

  // Zeroes a range (allocation-time init); charged as kAlloc. The charge,
  // trace access and write tally cover every byte, but the host memset
  // skips frames already known zero (PhysicalMemory::KnownZero), and a
  // swapped page that lies wholly inside the range faults in without its
  // far slot's bytes (FaultIntent::kOverwrite).
  void ZeroBytes(CpuContext& ctx, vaddr_t dst, std::uint64_t bytes);

  // Models a mutator streaming pass over [vaddr, vaddr+bytes): charges
  // kCompute at `cycles_per_byte`, probes the TLB once per page (so
  // post-GC TLB-flush refills show up in application time — the SwapVA
  // side cost the paper notes in §V-C), and emits one trace access.
  void StreamTouch(CpuContext& ctx, vaddr_t vaddr, std::uint64_t bytes,
                   double cycles_per_byte, bool is_write);

  void set_trace(MemTraceSink* sink) { trace_ = sink; }
  MemTraceSink* trace() const { return trace_; }

  // --- Far-memory tier -------------------------------------------------------

  // Attaches a far tier to this address space and immediately evicts down
  // to the configured residency limit (charging `ctx` the far writes). The
  // kernel reference is kept for the fault path: a hardware walk that meets
  // a swapped PTE dispatches SysHandleFault and retries. Enable at most
  // once, after the initial mappings exist; pages mapped later are tracked
  // but the limit is only enforced on the fault path and on SysMadviseCold.
  void EnableFarTier(Kernel& kernel, CpuContext& ctx,
                     const FarTierConfig& config);
  FarTier* far_tier() { return far_tier_.get(); }
  const FarTier* far_tier() const { return far_tier_.get(); }

  // Faults in every swapped page of [vaddr, vaddr+bytes) through the kernel
  // fault path (charging fault + far-read + any eviction's far-write). The
  // bulk paths call this so a memmove touching non-resident pages pays the
  // full far-tier freight — exactly what a SwapVA relink avoids. Under
  // FaultIntent::kOverwrite the caller overwrites the whole range next, so
  // pages that lie wholly inside it fault in with that intent; partly
  // covered pages always fault in with their contents.
  void EnsureResident(CpuContext& ctx, vaddr_t vaddr, std::uint64_t bytes,
                      FaultIntent intent = FaultIntent::kAccess);

 private:
  // The frame behind HwPtr: TLB lookup, or a charged walk and refill that
  // faults a swapped page in first.
  frame_t HwFrame(CpuContext& ctx, vaddr_t vaddr);
  // The far-slot bytes behind a non-present vaddr, read-only or for a raw
  // write (FarTier::SlotBytes/WritableSlotBytes); abort unless the page is
  // swapped out.
  const std::byte* SwappedBytes(vaddr_t vaddr) const;
  std::byte* WritableSwappedBytes(vaddr_t vaddr);

  Machine& machine_;
  PhysicalMemory& phys_;
  const std::uint64_t asid_;  // before table_: the hashed backend seeds on it
  std::unique_ptr<Translation> table_;
  MemTraceSink* trace_ = nullptr;
  std::unique_ptr<FarTier> far_tier_;
  Kernel* fault_kernel_ = nullptr;  // set with far_tier_; owns the fault hook
};

}  // namespace svagc::sim
