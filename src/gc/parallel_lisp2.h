// Parallel LISP2 mark-compact: the shared engine behind the serial LISP2
// prototype (one worker, Fig. 1), the ParallelGC-like baseline, the
// Shenandoah-like baseline's full collection, and SVAGC.
//
// Phase structure per cycle (paper §II):
//   I   marking            — parallel, level-synchronous work distribution
//   II  forwarding calc    — parallel region-summary pipeline (sweep ‖,
//                            prefix scan, install ‖), or the serial
//                            reference summary when configured
//   III pointer adjustment — parallel over the live list
//   IV  compaction         — parallel sliding compaction over regions,
//                            scheduled either by a dependency-aware
//                            work-stealing ready queue (default) or by the
//                            legacy static contiguous blocks; serial when
//                            compact_parallelism() == 1.
//
// Subclasses specialize MoveObject (SwapVA vs memmove), the compaction
// prologue/epilogue (pinning + up-front TLB shootdown for SVAGC), and the
// compaction parallelism (1 for the Shenandoah-like baseline, whose copying
// phase has no work stealing — the paper's stated reason it trails).
#pragma once

#include <atomic>
#include <memory>

#include "gc/collector.h"
#include "gc/forwarding.h"
#include "gc/mark.h"
#include "gc/plan_optimizer.h"
#include "support/spin_lock.h"
#include "support/ws_deque.h"

namespace svagc::gc {

// Phase II implementation choice. kParallelSummary uses the region-summary
// pipeline whenever the gang has more than one worker (with one worker the
// pipeline's second sweep is pure overhead, so it falls back to the serial
// reference).
enum class ForwardingMode {
  kSerial,
  kParallelSummary,
};

// Phase IV scheduling choice.
//
// kStaticBlocks: each worker owns a contiguous block of regions and walks it
// in order, waiting on a monotone completed-prefix frontier before evacuating
// a region with dependencies. Deterministic by construction; load-imbalanced
// when live data clusters.
//
// kWorkStealing: regions become ready when the interval of regions their
// moves write into has been evacuated, are released into the completing
// worker's Chase-Lev deque, and are claimed by whichever worker is idle.
// The real execution order is host-dependent, so the *reported* compact
// cycles come from a deterministic list-scheduling replay over per-region
// costs (which are order-independent — see parallel_lisp2.cc) rather than
// from the racy per-worker account deltas.
enum class CompactionSchedulerKind {
  kStaticBlocks,
  kWorkStealing,
};

// One engine, named by whoever configures it: "SerialLISP2" is the one-worker
// configuration (serial forwarding and compaction follow from one worker),
// "ParallelGC" the full gang with plain memmove moving.
class ParallelLisp2 : public CollectorBase {
 public:
  ParallelLisp2(sim::Machine& machine, unsigned gc_threads, unsigned first_core,
                const char* name = "ParallelLISP2",
                std::uint64_t region_bytes = kDefaultRegionBytes)
      : CollectorBase(machine, gc_threads, first_core),
        region_bytes_(region_bytes),
        name_(name) {}

  const char* name() const final { return name_; }

  // --- stepwise collection (the fleet-arbiter yield seam) ------------------
  // BeginCycle retires every mutator TLAB (the forwarding walk parses the
  // heap linearly) and opens a cycle; each StepPhase runs exactly one phase
  // (mark, forward incl. the plan optimizer, adjust, then compact incl.
  // prologue/epilogue and the cycle record). Between steps the collector is
  // quiescent: no worker holds modeled state, so a driver may run other
  // tenants' steps — or a cross-tenant TLB flush — before resuming.
  void StepPhase() override;
  bool cycle_active() const override { return cycle_ != nullptr; }
  bool at_relocation_boundary() const override {
    return cycle_ != nullptr && cycle_->next == Phase::kCompact;
  }

  ForwardingMode forwarding_mode() const { return forwarding_mode_; }
  void set_forwarding_mode(ForwardingMode mode) { forwarding_mode_ = mode; }
  CompactionSchedulerKind compaction_scheduler() const { return scheduler_; }
  void set_compaction_scheduler(CompactionSchedulerKind kind) {
    scheduler_ = kind;
  }
  const PlanOptimizerConfig& plan_optimizer() const { return plan_optimizer_; }
  void set_plan_optimizer(const PlanOptimizerConfig& config) {
    plan_optimizer_ = config;
  }
  // Stats from the last cycle's optimizer pass (zeroed when disabled).
  const PlanOptimizerStats& last_plan_stats() const { return last_plan_stats_; }

 protected:
  void ArmCycle(rt::Jvm& jvm) override;

  // Moves one object from move.src to move.dst (sizes in bytes) on behalf of
  // gang worker `worker` (whose context `ctx` is). The base implementation
  // is a pure memmove through the address space.
  virtual void MoveObject(rt::Jvm& jvm, sim::CpuContext& ctx, unsigned worker,
                          const Move& move);

  // Called once per region when the executing worker finishes that region's
  // moves — aggregation batches must be flushed *before* the region is
  // published as done (later regions may read the frames the batch still has
  // to place).
  virtual void FlushMoves(rt::Jvm& jvm, sim::CpuContext& ctx,
                          unsigned worker) {
    (void)jvm;
    (void)ctx;
    (void)worker;
  }

  // STW hooks around the compaction phase; cycles they charge to `ctx` are
  // recorded under `other`. SVAGC pins workers and issues the single
  // up-front process-wide TLB shootdown here (Algorithm 4 lines 2-5).
  virtual void CompactionPrologue(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }
  virtual void CompactionEpilogue(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }

  // Number of workers participating in compaction (phase IV). The mark and
  // adjust phases always use the full gang.
  virtual unsigned compact_parallelism() const { return gc_threads(); }

  // The swap threshold the plan optimizer qualifies runs against (and, for
  // SVAGC, the cycle's mover dispatch floor). The base value is the static
  // Threshold_Swapping; SvagcCollector overrides it with the per-cycle
  // adaptive choice when PlanOptimizerConfig::adaptive_threshold is set.
  virtual std::uint64_t PlanSwapThresholdPages(rt::Jvm& jvm) const {
    return jvm.heap().config().swap_threshold_pages;
  }

  // When true, every live object is "moved" even if its destination equals
  // its source — the cost profile of an evacuating (copying) collector,
  // which pays for all live bytes each cycle, not just the displaced ones.
  // Sliding compactors return false.
  virtual bool EvacuateAllLive() const { return false; }

  std::uint64_t region_bytes_;

 private:
  // The four phases of one LISP2 cycle, in execution order.
  enum class Phase : unsigned { kMark, kForward, kAdjust, kCompact };

  // In-flight cycle state for the stepwise API. Owned between BeginCycle and
  // the final StepPhase; null while no cycle is active.
  struct CycleState {
    explicit CycleState(rt::Heap& heap) : bitmap(heap) {}
    rt::GcCycleRecord rec;
    CycleTasks tasks;
    MarkBitmap bitmap;
    ForwardingResult fwd{};
    Phase next = Phase::kMark;
  };

  void StepMark();
  void StepForward();
  void StepAdjust();
  void StepCompact();

  // Evacuates one region's moves on `worker` and records the region's
  // modeled cost delta (for the work-stealing replay).
  void ExecuteRegion(rt::Jvm& jvm, sim::CpuContext& ctx, unsigned worker,
                     const CompactionPlan& plan, std::uint64_t region);

  double CompactStaticBlocks(rt::Jvm& jvm, const CompactionPlan& plan,
                             unsigned compact_workers);
  // When `compact_tasks` is non-null, the deterministic replay also emits
  // one phase-relative TaskSpan per region (the per-worker task spans the
  // trace shows for the work-stealing schedule).
  double CompactWorkStealing(rt::Jvm& jvm, const CompactionPlan& plan,
                             unsigned compact_workers,
                             std::vector<TaskSpan>* compact_tasks);

  // Static-blocks path: publishes `region` done and advances the monotone
  // completed-prefix frontier (satellite fix for the old 0..dep re-scan).
  void PublishRegionDone(std::uint64_t region);

  const char* const name_;
  ForwardingMode forwarding_mode_ = ForwardingMode::kParallelSummary;
  CompactionSchedulerKind scheduler_ = CompactionSchedulerKind::kWorkStealing;
  PlanOptimizerConfig plan_optimizer_;
  PlanOptimizerStats last_plan_stats_;
  std::unique_ptr<CycleState> cycle_;

  // --- Per-cycle compaction scheduling state ---
  // Static blocks: completion flags + monotone done-prefix frontier.
  std::vector<std::atomic<bool>> region_done_;
  std::atomic<std::uint64_t> frontier_{0};
  SpinLock sched_lock_;
  // Work stealing: per-worker ready deques, per-region unmet-dependency
  // counters, and for each region the list of regions waiting on it.
  std::vector<std::unique_ptr<WorkStealingDeque<std::uint64_t>>> deques_;
  std::vector<std::atomic<std::uint32_t>> deps_left_;
  std::vector<std::vector<std::uint64_t>> watchers_;
  std::atomic<std::uint64_t> regions_left_{0};
  // Per-region modeled cost, written once by the executing worker and read
  // after the phase joins (for the deterministic replay).
  std::vector<double> region_cost_;
};

}  // namespace svagc::gc
