// SVAGC: the paper's collector (§IV) — parallel LISP2 whose compaction
// moves large objects by virtual-address swapping.
//
// Per cycle, the compaction phase follows Algorithm 4:
//   pin the compaction workers (declaration: all their translations stay on
//   their own cores), issue ONE process-wide TLB shootdown up front, then
//   run MoveObject with local-only flushing — c IPIs per cycle instead of
//   l·c (Eq. 2). Alternatively, `tlb_mode = kNaive` keeps the per-call
//   global shootdown (the unoptimized curve of Fig. 9).
#pragma once

#include <memory>

#include "core/move_object.h"
#include "gc/parallel_lisp2.h"

namespace svagc::core {

// Cross-process TLB coordination (the fleet arbiter implements this). When
// several tenants' cycles run phase-interleaved, the arbiter issues ONE
// multi-asid broadcast at the adjust/compact boundary covering every
// co-admitted process; each tenant's compaction prologue then asks whether
// its own Algorithm 4 process-wide shootdown is already covered and skips
// it. Coverage is single-use: a consult consumes it.
class EpochFlushCoordinator {
 public:
  virtual ~EpochFlushCoordinator() = default;
  // True when a still-valid epoch broadcast covers `asid`; the caller may
  // (must, to keep IPI accounting shared) skip its own process flush for
  // this cycle.
  virtual bool ConsumeEpochFlush(std::uint64_t asid) = 0;
};

struct SvagcConfig {
  MoveObjectConfig move;
  // kLocalOnly  = Algorithm 4 (pin + one up-front shootdown, local flushes)
  // kGlobalPerCall = naive shootdown after every swap call
  bool pinned_compaction = true;
  std::uint64_t region_bytes = gc::kDefaultRegionBytes;
  // With a far tier attached, the compaction epilogue advises the kernel
  // that the plan's dense prefix is cold (SysMadviseCold): compaction never
  // moves those objects again, so they are the cheapest pages to demote —
  // and a later SwapVA relinks them without faulting them back in.
  bool advise_cold_dense_prefix = false;
};

class SvagcCollector : public gc::ParallelLisp2 {
 public:
  SvagcCollector(sim::Machine& machine, unsigned gc_threads,
                 unsigned first_core, const SvagcConfig& config = {});
  ~SvagcCollector() override;

  const SvagcConfig& config() const { return config_; }

  // The swap threshold the coming cycle will dispatch with: the adaptive
  // Fig. 10 crossover when the plan optimizer's adaptive_threshold knob is
  // on, else the static MoveObjectConfig value.
  std::uint64_t PlanSwapThresholdPages(rt::Jvm& jvm) const override;

  // Attaches (or detaches, with nullptr) the fleet arbiter's epoch-flush
  // coordinator. Not owned. With no coordinator — or whenever the
  // coordinator reports no coverage — the prologue issues its own
  // process-wide shootdown exactly as before.
  void set_epoch_flush_coordinator(EpochFlushCoordinator* coordinator) {
    epoch_flush_coordinator_ = coordinator;
  }

 protected:
  void MoveObject(rt::Jvm& jvm, sim::CpuContext& ctx, unsigned worker,
                  const gc::Move& move) override;
  void FlushMoves(rt::Jvm& jvm, sim::CpuContext& ctx,
                  unsigned worker) override;
  void CompactionPrologue(rt::Jvm& jvm, sim::CpuContext& ctx) override;
  void CompactionEpilogue(rt::Jvm& jvm, sim::CpuContext& ctx) override;

 private:
  ObjectMover& MoverFor(rt::Jvm& jvm, unsigned worker);
  void BindMovers(rt::Jvm& jvm);

  SvagcConfig config_;
  // One mover per worker, created lazily for the Jvm being collected.
  std::vector<std::unique_ptr<ObjectMover>> movers_;
  rt::Jvm* movers_jvm_ = nullptr;
  // Whether this cycle's prologue pinned the workers (and the epilogue must
  // unpin them). False when pinning is off or the pin request was refused.
  bool pinned_this_cycle_ = false;
  // "gc.pin_refusals": cycles whose pin request was refused (kPinRefused),
  // so the whole compaction fell back to per-call global shootdowns.
  telemetry::Counter& pin_refusals_;
  // Adaptive-threshold feedback: bytes the previous cycle actually moved
  // (copied + swapped), which selects the cached-vs-DRAM copy rate in
  // ChooseSwapThresholdPages. Reset with the movers on a JVM rebind.
  std::uint64_t last_cycle_moved_bytes_ = 0;
  EpochFlushCoordinator* epoch_flush_coordinator_ = nullptr;
};

}  // namespace svagc::core
