// Shenandoah-like baseline.
//
// Models the behaviour the paper measures for Shenandoah's *full*
// collections: region-based, with parallel marking, but a copying phase
// that "does not utilize the work-stealing mechanism and parallelism in its
// compaction (copying) phase" (§V-A) — so compaction runs single-threaded
// here, with a small per-object penalty for the concurrent collector's
// indirection bookkeeping (Brooks-pointer style forwarding maintenance).
#pragma once

#include "gc/parallel_lisp2.h"

namespace svagc::gc {

class ShenandoahLike : public ParallelLisp2 {
 public:
  ShenandoahLike(sim::Machine& machine, unsigned gc_threads,
                 unsigned first_core)
      : ParallelLisp2(machine, gc_threads, first_core, "Shenandoah") {}

 protected:
  unsigned compact_parallelism() const override { return 1; }

  // Evacuating collector: every live object is copied each full cycle, not
  // just the displaced ones (region evacuation into empty regions).
  bool EvacuateAllLive() const override { return true; }

  void MoveObject(rt::Jvm& jvm, sim::CpuContext& ctx, unsigned worker,
                  const Move& move) override {
    // Indirection maintenance per evacuated object.
    ctx.account.Charge(sim::CostKind::kCompute, kIndirectionOverhead);
    if (move.src == move.dst) {
      // In-place "evacuation": the bytes are still streamed through the
      // copy path (into a fresh region and logically back), so charge the
      // copy cost without perturbing the layout.
      ctx.account.Charge(
          sim::CostKind::kCopy,
          static_cast<double>(move.size) *
              jvm.machine().cost().copy_per_byte_dram *
              jvm.machine().BandwidthContentionFactor());
      counters().bytes_copied.Add(move.size);
      counters().objects_moved.Add();
      return;
    }
    ParallelLisp2::MoveObject(jvm, ctx, worker, move);
  }

 private:
  static constexpr double kIndirectionOverhead = 150;
};

}  // namespace svagc::gc
