// Mutator-concurrent SVAGC (ROADMAP item 1): snapshot-at-the-beginning
// concurrent marking plus incremental evacuation behind the shared
// PhaseEngine, bounding *max pause* instead of just total GC time (the
// paper's Fig. 13 claim that the STW collectors can only approximate).
//
// Cycle structure — every StepPhase() call is one bounded work quantum; only
// the windows marked [STW] stop the mutators:
//
//   BeginCycle  [STW]  init-mark: scan the root set onto the mark stack,
//                      turn the SATB write barrier on. No TLAB retire, no
//                      heap touch — O(roots).
//   kMark       conc.  budget-bounded SATB tracing quanta (TestAndSet +
//                      MarkSerial's cost schedule); full per-mutator SATB
//                      buffers are handed off and absorbed into the stack.
//                      Objects allocated while marking are allocated black.
//   kRemark     [STW]  drain the residual per-mutator SATB buffers and mark
//                      transitively from them — O(SATB buffer), not O(heap),
//                      because the concurrent quanta only end once the stack
//                      and the handed-off buffers are empty. Retires TLABs
//                      (parsable-heap point), snapshots top_at_plan, arms
//                      the plan walk. SATB off; allocation now goes above
//                      top_at_plan and is exempt from the plan.
//   kPlan       conc.  resumable forwarding walk over [base, top_at_plan),
//                      replicating ComputeForwarding bit-for-bit (same plan,
//                      same fillers, same charges) but yielding on the
//                      quantum budget; also builds the old->new (fwd) and
//                      new->old (rev) side maps the barrier serves from.
//   kEvacuate   [STW]  incremental relocation windows: moves execute in
//                      globally ascending source order (region-ascending,
//                      in-region ascending — the proven-safe serial
//                      compaction order), as many per window as the budget
//                      allows, with a resumable cursor. Subclass hooks pin
//                      workers and issue per-window TLB flushes here.
//   kAdjust     conc.  rewrite roots, then the live list in ascending order
//                      (each object visited at its *new* location via fwd),
//                      then the objects allocated mid-cycle — all through
//                      the fwd side map (evacuation already clobbered the
//                      old headers, so forwarding words are unusable here,
//                      unlike the STW order).
//   kFinalize   conc.  write the plan's fillers (budget-bounded), then one
//   + flip      [STW]  O(1) flip window: publish the new top (or cover
//                      [new_top, top_at_plan) with a filler when mid-cycle
//                      allocation raised the top), record the cycle.
//
// Mutator identity protocol (the read/write barrier, rt::GcBarrier): for the
// whole cycle mutators name objects by their *pre-cycle* (old-form)
// addresses. ReadRef/ReadRoot return old-form names; Resolve() maps a name
// to where the bytes currently live (old location until the object's move
// executes, destination after — the Brooks indirection). Once an owner
// object has been adjusted its slots hold new-form values, which the read
// barrier maps back through the rev side map; this is unambiguous because
// live destinations are pairwise disjoint and disjoint from unmoved live
// extents. Roots need no SATB barrier: init-mark stacks every root target,
// and any later root store names an already-reachable or allocated-black
// object.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "gc/collector.h"
#include "gc/forwarding.h"
#include "gc/mark_bitmap.h"
#include "gc/phase_engine.h"
#include "runtime/gc_barrier.h"

namespace svagc::gc {

struct ConcurrentSvagcConfig {
  // Target modeled cycles per GC work quantum. Every evacuation [STW] window
  // stops within one indivisible work item of this budget, so
  // window <= quantum_cycles + max_single_step_cycles() by construction.
  // ~24 us at 2.1 GHz: well under a monolithic STW cycle on even the
  // smallest evaluation heaps, so the max-pause win is unconditional.
  double quantum_cycles = 50000;
  // Per-mutator SATB buffer capacity; a full buffer is handed off to the
  // collector (drained by the next mark quantum, or by remark).
  std::size_t satb_buffer_capacity = 256;
  std::uint64_t region_bytes = kDefaultRegionBytes;
  // When > 0: a safepoint poll with no active cycle starts one once
  // heap.used() >= trigger_fraction * capacity. Default off — raw workloads
  // mutate references through unbarriered ObjectViews between polls, so
  // cycles under them must run inside Collect() (quantized back to back).
  double trigger_fraction = 0;
};

// Concurrent cycle phases, in order. kIdle = no cycle in flight.
enum class ConcPhase : unsigned {
  kIdle = 0,
  kMark,
  kRemark,
  kPlan,
  kEvacuate,
  kAdjust,
  kFinalize,
};

inline const char* ConcPhaseName(ConcPhase phase) {
  switch (phase) {
    case ConcPhase::kIdle:
      return "idle";
    case ConcPhase::kMark:
      return "mark";
    case ConcPhase::kRemark:
      return "remark";
    case ConcPhase::kPlan:
      return "plan";
    case ConcPhase::kEvacuate:
      return "evacuate";
    case ConcPhase::kAdjust:
      return "adjust";
    case ConcPhase::kFinalize:
      return "finalize";
  }
  return "?";
}

// One STW window's provenance + modeled length (the pause-bound property
// test sweeps this log; the pause histogram records the same values).
struct StwWindow {
  ConcPhase phase;   // which phase the window served (init-mark logs kMark)
  double cycles;
};

class ConcurrentSvagc : public CollectorBase,
                        public PhaseEngine,
                        public rt::GcBarrier {
 public:
  ConcurrentSvagc(sim::Machine& machine, unsigned gc_threads,
                  unsigned first_core,
                  const ConcurrentSvagcConfig& config = {});
  ~ConcurrentSvagc() override;

  const char* name() const override { return "ConcurrentSVAGC"; }

  // Runs a whole cycle quantized back to back (finishing a mid-flight cycle
  // first when the allocation-failure path lands here mid-cycle). The
  // per-window pauses still land in the pause histogram individually, so
  // max-pause reporting stays honest even for inline cycles.
  void Collect(rt::Jvm& jvm) override;

  // --- PhaseEngine --------------------------------------------------------
  void BeginCycle(rt::Jvm& jvm) override;
  void StepPhase() override;
  bool cycle_active() const override { return phase_ != ConcPhase::kIdle; }
  bool at_relocation_boundary() const override {
    return phase_ == ConcPhase::kEvacuate && !relocation_started_;
  }

  const ConcurrentSvagcConfig& concurrent_config() const { return config_; }
  ConcPhase phase() const { return phase_; }

  // --- introspection for the test harness ---------------------------------
  // All STW windows since construction, in execution order.
  const std::vector<StwWindow>& stw_windows() const { return stw_windows_; }
  // Largest single indivisible work item (one object visit, one move, ...)
  // charged so far — the slack term in the window bound.
  double max_single_step_cycles() const { return max_single_step_cycles_; }
  // Mark set of the last started cycle (valid from remark until the next
  // BeginCycle): snapshot-reachable plus allocated-black objects.
  std::uint64_t marked_objects() const { return marked_objects_; }
  std::uint64_t marked_bytes() const { return marked_bytes_; }
  // SATB entries enqueued / drained at remark during the last started cycle.
  std::uint64_t satb_enqueued() const { return satb_enqueued_; }
  std::uint64_t remark_drained() const { return remark_drained_; }

  // --- rt::GcBarrier ------------------------------------------------------
  rt::vaddr_t ReadRef(rt::Jvm& jvm, rt::vaddr_t obj, std::uint32_t slot,
                      unsigned logical_thread) override;
  void WriteRef(rt::Jvm& jvm, rt::vaddr_t obj, std::uint32_t slot,
                rt::vaddr_t value, unsigned logical_thread) override;
  rt::vaddr_t ReadRoot(rt::Jvm& jvm, rt::RootSet::Handle handle) override;
  void WriteRoot(rt::Jvm& jvm, rt::RootSet::Handle handle,
                 rt::vaddr_t value) override;
  rt::vaddr_t Resolve(rt::Jvm& jvm, rt::vaddr_t ref) override;
  void OnAlloc(rt::Jvm& jvm, rt::vaddr_t addr,
               unsigned logical_thread) override;
  void AtSafepoint(rt::Jvm& jvm, unsigned logical_thread) override;

 protected:
  // Relocates one move (sizes in bytes) on worker 0's context. The base
  // implementation is a costed memmove; the core-layer subclass dispatches
  // through the SwapVA ObjectMover.
  virtual void MoveOne(rt::Jvm& jvm, sim::CpuContext& ctx, const Move& move);
  // Flushes any batched relocation state at the end of an evacuation window
  // (aggregation batches must not stay open across a mutator interval).
  virtual void FlushEvacBatch(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }
  // First evacuation window, before any move: pin the evacuation worker.
  virtual void EvacBegin(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }
  // Start of *every* evacuation window: mutators ran (and repopulated TLBs)
  // since the previous window, so SVAGC's one-shootdown-per-cycle becomes
  // one per window here.
  virtual void EvacQuantumPrologue(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }
  // Last evacuation window, after the final move: unpin.
  virtual void EvacEnd(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }
  // The flip window (end of cycle): publish mover statistics.
  virtual void CycleFlip(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }

 private:
  void StepMarkQuantum();
  void StepRemark();
  void StepPlanQuantum();
  void StepEvacQuantum();
  void StepAdjustQuantum();
  void StepFinalizeQuantum();

  // Records one completed STW window: labeled log + per-window pause entry.
  void RecordStwWindow(ConcPhase phase, double cycles);
  void NoteStep(double cycles) {
    if (cycles > max_single_step_cycles_) max_single_step_cycles_ = cycles;
  }

  // Marks `addr` if unmarked, charging MarkSerial's schedule and pushing its
  // references; shared by the mark quanta and remark.
  void MarkOne(rt::Jvm& jvm, sim::CpuContext& ctx, rt::vaddr_t addr);

  // Where the bytes of old-form name `old_addr` currently live.
  rt::vaddr_t CurrentLocation(rt::vaddr_t old_addr) const {
    if (!relocation_started_ || old_addr > last_executed_src_) return old_addr;
    const auto it = fwd_.find(old_addr);
    return it == fwd_.end() ? old_addr : it->second;
  }
  // Whether the adjust phase has already rewritten `obj`'s slots (they hold
  // new-form values from then on).
  bool OwnerAdjusted(rt::vaddr_t obj) const {
    if (top_at_plan_ != 0 && obj >= top_at_plan_) return allocs_adjusted_;
    return adjust_started_ && obj <= adjusted_upto_;
  }
  rt::vaddr_t ToNewForm(rt::vaddr_t old_addr) const {
    const auto it = fwd_.find(old_addr);
    return it == fwd_.end() ? old_addr : it->second;
  }
  rt::vaddr_t ToOldForm(rt::vaddr_t new_addr) const {
    const auto it = rev_.find(new_addr);
    return it == rev_.end() ? new_addr : it->second;
  }

  void SatbEnqueue(rt::vaddr_t value, unsigned logical_thread);

  ConcurrentSvagcConfig config_;
  ConcPhase phase_ = ConcPhase::kIdle;
  rt::Jvm* jvm_ = nullptr;

  // --- marking ---
  std::unique_ptr<MarkBitmap> bitmap_;
  std::vector<rt::vaddr_t> mark_stack_;
  bool satb_on_ = false;
  std::vector<std::vector<rt::vaddr_t>> satb_buffers_;  // per logical mutator
  std::vector<std::vector<rt::vaddr_t>> satb_handoff_;  // full, handed off
  std::uint64_t satb_enqueued_ = 0;
  std::uint64_t remark_drained_ = 0;
  std::uint64_t marked_objects_ = 0;
  std::uint64_t marked_bytes_ = 0;

  // --- plan (resumable ComputeForwarding walk) ---
  rt::vaddr_t top_at_plan_ = 0;
  rt::vaddr_t plan_cursor_ = 0;
  rt::vaddr_t comp_pnt_ = 0;
  CompactionPlan plan_;
  std::vector<rt::vaddr_t> live_;
  std::unordered_map<rt::vaddr_t, rt::vaddr_t> fwd_;  // old -> new, moved only
  std::unordered_map<rt::vaddr_t, rt::vaddr_t> rev_;  // new -> old, moved only

  // --- evacuation ---
  std::vector<Move> moves_;  // flattened, globally ascending source order
  std::size_t evac_cursor_ = 0;
  rt::vaddr_t last_executed_src_ = 0;  // src of the last executed move
  bool relocation_started_ = false;

  // --- adjust ---
  bool adjust_started_ = false;
  bool roots_adjusted_ = false;
  rt::vaddr_t adjusted_upto_ = 0;  // old-form address, inclusive
  std::size_t adjust_cursor_ = 0;
  std::vector<rt::vaddr_t> cycle_allocs_;  // allocated after remark
  std::size_t alloc_adjust_cursor_ = 0;
  bool allocs_adjusted_ = false;

  // --- finalize ---
  std::size_t filler_cursor_ = 0;

  // --- accounting ---
  rt::GcCycleRecord rec_;
  std::vector<StwWindow> stw_windows_;
  double max_single_step_cycles_ = 0;
  // "gc.concurrent_cycles": modeled cycles spent in concurrent (non-STW)
  // quanta, each quantum truncated to whole cycles.
  telemetry::Counter& concurrent_cycles_;
};

}  // namespace svagc::gc
