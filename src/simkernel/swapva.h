// The SwapVA system call (paper §III) and its kernel-side implementation.
//
// SysSwapVa swaps two page-aligned virtual ranges by exchanging their PTEs
// (Algorithm 1); overlapping ranges are handled with the gcd cycle-following
// rotation of Algorithm 2, which is exactly an overlapping *move* — the
// semantics GC compaction needs. SysSwapVaVec is the aggregation interface
// of Fig. 5(b): many swap requests, one kernel entry, one TLB flush.
//
// TLB coherence policies (paper §IV, "Multi-Core Scalability of SwapVA"):
//   * kGlobalPerCall — naive: after each call, flush locally and IPI every
//     other core (what an unoptimized kernel must do for correctness).
//   * kLocalOnly    — scalable: the caller pinned itself and issued one
//     up-front SysFlushProcessTlbs; each call flushes only the local TLB
//     (Algorithm 4's regime).
//
// Syscalls that real kernels can refuse return a SysStatus; callers must
// handle kFault / kNotPinned / kPinRefused rather than assume success. The
// failure modes themselves are driven by an optional FaultHook (fault.h).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "simkernel/address_space.h"
#include "simkernel/config.h"
#include "simkernel/fault.h"

namespace svagc::sim {

enum class TlbPolicy {
  kGlobalPerCall,
  kLocalOnly,
};

// Syscall result codes. The simulated kernel aborts on caller *bugs*
// (misaligned ranges) but returns errors for conditions a correct caller
// must tolerate at runtime.
enum class SysStatus {
  kOk = 0,
  // A PTE swap was refused; for SysSwapVa no work was done.
  kFault,
  // A kLocalOnly call arrived from a context whose pin was revoked
  // (scheduler migration); no work was done. The caller must re-pin and
  // re-flush before retrying, or fall back to copying.
  kNotPinned,
  // SysPin was denied (sched_setaffinity failure); the context is unpinned.
  kPinRefused,
};

inline const char* SysStatusName(SysStatus status) {
  switch (status) {
    case SysStatus::kOk:
      return "ok";
    case SysStatus::kFault:
      return "fault";
    case SysStatus::kNotPinned:
      return "not-pinned";
    case SysStatus::kPinRefused:
      return "pin-refused";
  }
  return "?";
}

// Result of an aggregated call: requests [0, completed) were fully applied
// (and, if any work was done, covered by the end-of-call flush); requests
// [completed, n) were not touched. completed == n iff status == kOk.
struct SwapVecResult {
  SysStatus status = SysStatus::kOk;
  std::size_t completed = 0;
};

struct SwapVaOptions {
  bool pmd_caching = true;
  TlbPolicy tlb_policy = TlbPolicy::kGlobalPerCall;

  // Huge-entry swapping: when both ranges are 2 MiB-aligned, exchange whole
  // PMD entries (1 entry write per 2 MiB instead of 512) for every fully
  // covered unit; remainder pages and unaligned calls fall back to the PTE
  // path, splitting any huge leaf they meet (swapva.pmd_splits). Off by
  // default so every pre-huge figure reproduces bit-identically.
  bool pmd_swapping = false;

  // Security extension (paper §III-B): "to prevent data breaches between
  // threads, the system call can be extended to clean up memory after each
  // swapping". When set, the frames that land under the *source* range
  // (i.e. the relinquished destination frames) are zeroed before the call
  // returns, so a move leaves no stale payload behind. Costs one zeroing
  // pass over the swapped pages; disjoint swaps only (a rotation has no
  // relinquished side).
  bool scrub_source = false;
};

struct SwapRequest {
  vaddr_t a = 0;
  vaddr_t b = 0;
  std::uint64_t pages = 0;
};

// The kernel object: one per simulated machine. Stateless apart from the
// machine reference; processes are represented by their address spaces plus
// the pinning flag carried in each CpuContext.
class Kernel {
 public:
  explicit Kernel(Machine& machine)
      : machine_(machine),
        ctr_calls_(machine.metrics().counter("swapva.calls")),
        ctr_pages_(machine.metrics().counter("swapva.pages_swapped")),
        ctr_pin_calls_(machine.metrics().counter("pin.calls")),
        ctr_pin_refused_(machine.metrics().counter("pin.refused")),
        ctr_not_pinned_(machine.metrics().counter("pin.not_pinned")),
        ctr_unpin_calls_(machine.metrics().counter("unpin.calls")),
        ctr_flush_process_(machine.metrics().counter("flush.process")),
        ctr_flush_fleet_(machine.metrics().counter("flush.fleet")),
        ctr_pmd_hits_(machine.metrics().counter("pmd.hits")),
        ctr_pmd_misses_(machine.metrics().counter("pmd.misses")),
        ctr_pmd_swaps_(machine.metrics().counter("swapva.pmd_swaps")),
        ctr_pmd_splits_(machine.metrics().counter("swapva.pmd_splits")),
        ctr_pte_swaps_(machine.metrics().counter("swapva.pte_swaps")),
        ctr_tier_relinks_(
            machine.metrics().counter("kernel.tier.relinks_swapped")),
        ctr_madvise_cold_(
            machine.metrics().counter("kernel.tier.madvise_cold")) {}

  Machine& machine() { return machine_; }

  // swapva(2). `a` and `b` must be page-aligned; ranges may overlap (the
  // overlap optimization kicks in automatically, as the paper's kernel
  // does). Charges one syscall entry; applies the TLB policy at the end.
  SysStatus SysSwapVa(AddressSpace& as, CpuContext& ctx, vaddr_t a, vaddr_t b,
                      std::uint64_t pages, const SwapVaOptions& opts);

  // swapva_vec(2): aggregated requests, one kernel entry, one flush.
  // Per-request atomic: on error the completed prefix is applied and
  // flushed, the rest untouched (see SwapVecResult).
  SwapVecResult SysSwapVaVec(AddressSpace& as, CpuContext& ctx,
                             std::span<const SwapRequest> requests,
                             const SwapVaOptions& opts);

  // flush_tlb_all_cores(pid): Algorithm 4 line 5 — one local flush plus a
  // broadcast shootdown, invoked once before a pinned compaction phase.
  void SysFlushProcessTlbs(AddressSpace& as, CpuContext& ctx);

  // Fleet epoch flush: the batched, cross-process generalization the
  // multi-tenant arbiter uses. One kernel entry, one local flush per address
  // space on the calling core, then a single multi-asid shootdown round —
  // every remote core takes ONE interrupt for the whole batch instead of one
  // per process. Returns kFault when the broadcast is lost
  // (kDropEpochBroadcast); the local halves are already applied and the
  // caller must fall back to per-process SysFlushProcessTlbs.
  SysStatus SysFlushFleetTlbs(std::span<AddressSpace* const> spaces,
                              CpuContext& ctx);

  // --- Far-memory tier syscalls --------------------------------------------

  // The userspace fault path: invoked by the address-space walk when a
  // translation meets a swapped PTE. Charges the trap + lightweight-thread
  // dispatch (fault_entry/fault_dispatch — no syscall_entry: faults are
  // exceptions, not syscalls) and delegates to the per-process handler,
  // which swaps the page in, evicting first when the residency limit is
  // reached. Aborts when the address space has no far tier (a swapped PTE
  // cannot exist without one). `intent` tells the handler whether the
  // faulting access overwrites the whole page (FarTier::SwapIn).
  void SysHandleFault(AddressSpace& as, CpuContext& ctx, vaddr_t vaddr,
                      FaultIntent intent = FaultIntent::kAccess);

  // madvise(MADV_COLD/MADV_PAGEOUT)-style demotion hint: demotes every
  // resident 4 KiB-mapped page of [vaddr, vaddr+bytes) to the far tier.
  // Huge-mapped units are skipped (their 2 MiB reach defeats per-page
  // eviction, and the PMD fast path must stay a pure entry exchange).
  // Returns the number of pages demoted; 0 without a far tier. The GC's
  // cold-page advice (the compaction plan's dense prefix) lands here.
  std::uint64_t SysMadviseCold(AddressSpace& as, CpuContext& ctx,
                               vaddr_t vaddr, std::uint64_t bytes);

  // Raises or lowers the far tier's residency limit, evicting down to the
  // new limit before returning (cgroup memory.high semantics).
  void SysSetResidencyLimit(AddressSpace& as, CpuContext& ctx,
                            std::uint64_t pages);

  // sched_setaffinity-style pin/unpin. In the simulation pinning is a
  // correctness *declaration*: the caller promises all its translations
  // during the pinned window happen on ctx.core_id, which lets SwapVA use
  // kLocalOnly flushing. Charged as one syscall each. SysPin can be refused
  // (kPinRefused); once a context has pinned at least once, kLocalOnly
  // swap calls from it are validated against the pin and fail with
  // kNotPinned if the pin was revoked.
  SysStatus SysPin(CpuContext& ctx);
  void SysUnpin(CpuContext& ctx);

  // Attaches (or detaches, with nullptr) the fault-injection hook. The
  // kernel does not own the hook; the caller must detach before the hook is
  // destroyed. Not thread-safe against in-flight syscalls — attach/detach
  // only while the machine is quiescent.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  std::uint64_t swapva_calls() const { return ctr_calls_.value(); }
  std::uint64_t pages_swapped() const { return ctr_pages_.value(); }
  // Huge-path tallies. Invariant (the property tests rely on it):
  //   pmd_swaps() * kPagesPerHuge + pte_swaps() == pages_swapped().
  std::uint64_t pmd_swaps() const { return ctr_pmd_swaps_.value(); }
  std::uint64_t pmd_splits() const { return ctr_pmd_splits_.value(); }
  std::uint64_t pte_swaps() const { return ctr_pte_swaps_.value(); }
  // Swapped-out entries relinked by the swap paths without faulting them in
  // — the far-tier headline: each of these moved a cold page for zero
  // far-tier copy cycles.
  std::uint64_t relinks_swapped() const { return ctr_tier_relinks_.value(); }

 private:
  // Algorithm 1: disjoint ranges, pairwise PTE exchange — plus the PMD
  // fast path for 2 MiB-aligned range pairs. Returns kFault when the
  // kHugeSwapFault injection fires (after rolling the PMD half back).
  SysStatus SwapDisjoint(AddressSpace& as, CpuContext& ctx, vaddr_t a,
                         vaddr_t b, std::uint64_t pages,
                         const SwapVaOptions& opts);

  // Algorithm 2: overlapping ranges, gcd cycle rotation, O(pages + delta).
  // Rotates whole PMD entries when the span is 2 MiB-granular and every
  // unit is huge-mapped.
  void SwapOverlap(AddressSpace& as, CpuContext& ctx, vaddr_t lo, vaddr_t hi,
                   std::uint64_t pages, const SwapVaOptions& opts);

  // Resolves the leaf slot for a PTE-granularity swap through the backend,
  // charging the 512 entry writes (and swapva.pmd_splits) when a covering
  // huge leaf was demoted on the way (THP-style split). A split also tells
  // the far tier (when one is attached) that the unit's 512 pages are now
  // individually resident; no leaf lock is held at that point, so the
  // tier-lock -> leaf-lock order is preserved.
  Translation::PteRef LeafForPteSwap(AddressSpace& as, std::uint64_t vpn,
                                     CpuContext& ctx, PmdCache* cache);

  void ApplyEndOfCallFlush(AddressSpace& as, CpuContext& ctx,
                           const SwapVaOptions& opts);

  bool Inject(FaultPoint point) {
    return fault_hook_ != nullptr && fault_hook_->ShouldFire(point);
  }

  // Entry check for kLocalOnly swap calls: contexts that have declared a pin
  // (ever called SysPin) must still hold it. The kForceUnpin fault revokes
  // the pin here, modelling a scheduler migration between syscalls.
  SysStatus ValidatePinned(CpuContext& ctx, const SwapVaOptions& opts);

  // Folds a per-call PmdCache's hit/miss tally into the machine registry
  // ("pmd.hits"/"pmd.misses") once the walk streams are done with it.
  void DrainPmdTally(const PmdCache* cache);

  Machine& machine_;
  FaultHook* fault_hook_ = nullptr;
  // Machine-registry counters, bumped from every GC worker's syscalls
  // concurrently and resolved once so the syscall paths never look a name
  // up.
  telemetry::Counter& ctr_calls_;
  telemetry::Counter& ctr_pages_;
  telemetry::Counter& ctr_pin_calls_;
  telemetry::Counter& ctr_pin_refused_;
  telemetry::Counter& ctr_not_pinned_;
  telemetry::Counter& ctr_unpin_calls_;
  telemetry::Counter& ctr_flush_process_;
  telemetry::Counter& ctr_flush_fleet_;
  telemetry::Counter& ctr_pmd_hits_;
  telemetry::Counter& ctr_pmd_misses_;
  telemetry::Counter& ctr_pmd_swaps_;
  telemetry::Counter& ctr_pmd_splits_;
  telemetry::Counter& ctr_pte_swaps_;
  telemetry::Counter& ctr_tier_relinks_;
  telemetry::Counter& ctr_madvise_cold_;
};

}  // namespace svagc::sim
