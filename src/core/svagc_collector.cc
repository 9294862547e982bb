#include "core/svagc_collector.h"

#include "support/align.h"

namespace svagc::core {

SvagcCollector::SvagcCollector(sim::Machine& machine, unsigned gc_threads,
                               unsigned first_core, const SvagcConfig& config)
    : gc::ParallelLisp2(machine, gc_threads, first_core, "SVAGC",
                        config.region_bytes),
      config_(config),
      pin_refusals_(metrics().counter("gc.pin_refusals")) {
  if (!config_.pinned_compaction) {
    // Without pinning, correctness requires a global shootdown per call.
    config_.move.tlb_policy = sim::TlbPolicy::kGlobalPerCall;
  }
  movers_.resize(gc_threads);
}

SvagcCollector::~SvagcCollector() = default;

ObjectMover& SvagcCollector::MoverFor(rt::Jvm& jvm, unsigned worker) {
  // Movers are (re)bound serially in CompactionPrologue; workers only read.
  SVAGC_CHECK(movers_jvm_ == &jvm && movers_[worker] != nullptr);
  return *movers_[worker];
}

std::uint64_t SvagcCollector::PlanSwapThresholdPages(rt::Jvm& jvm) const {
  (void)jvm;
  if (plan_optimizer().adaptive_threshold) {
    return gc::ChooseSwapThresholdPages(machine_.cost(),
                                        last_cycle_moved_bytes_);
  }
  return config_.move.threshold_pages;
}

void SvagcCollector::BindMovers(rt::Jvm& jvm) {
  if (movers_jvm_ != &jvm) {
    for (auto& mover : movers_) mover.reset();
    movers_jvm_ = &jvm;
    last_cycle_moved_bytes_ = 0;
  }
  for (auto& mover : movers_) {
    if (!mover) mover = std::make_unique<ObjectMover>(jvm, config_.move);
  }
}

void SvagcCollector::MoveObject(rt::Jvm& jvm, sim::CpuContext& ctx,
                                unsigned worker, const gc::Move& move) {
  // The scheduler hands us the gang worker id, so mover lookup is O(1) on
  // this hottest per-object path (it used to scan every worker context).
  ctx.account.Charge(sim::CostKind::kCompute, costs().move_dispatch);
  ObjectMover& mover = MoverFor(jvm, worker);
  if (move.run) {
    mover.MoveRun(ctx, move.src, move.dst, move.size, move.objects);
  } else {
    mover.Move(ctx, move.src, move.dst, move.size);
  }
  counters().objects_moved.Add(move.objects);
}

void SvagcCollector::FlushMoves(rt::Jvm& jvm, sim::CpuContext& ctx,
                                unsigned worker) {
  if (movers_jvm_ != &jvm) return;
  if (movers_[worker]) movers_[worker]->Flush(ctx);
}

void SvagcCollector::CompactionPrologue(rt::Jvm& jvm, sim::CpuContext& ctx) {
  BindMovers(jvm);
  // Apply the cycle's dispatch threshold before any Move of the phase. The
  // same inputs produced the plan optimizer's qualification earlier in this
  // cycle (last_cycle_moved_bytes_ only advances in the epilogue), so plan
  // and mover agree on what is swappable.
  const std::uint64_t override_pages =
      plan_optimizer().adaptive_threshold ? PlanSwapThresholdPages(jvm) : 0;
  for (auto& mover : movers_) mover->set_threshold_pages(override_pages);
  pinned_this_cycle_ = false;
  if (!config_.pinned_compaction || !config_.move.use_swapva) return;
  // Algorithm 4 lines 2-5: pin every compaction worker, then one
  // process-wide shootdown so every other core starts the phase with no
  // stale entries for this process. Runs serially before the parallel
  // compact phase, so the workers' pin flags are set before they start.
  unsigned pinned = 0;
  sim::SysStatus status = sim::SysStatus::kOk;
  for (; pinned < gc_threads(); ++pinned) {
    status = jvm.kernel().SysPin(worker_ctx(pinned));
    if (status != sim::SysStatus::kOk) break;
  }
  if (status != sim::SysStatus::kOk) {
    // The scheduler refused the affinity request: Algorithm 4's precondition
    // cannot be established, so this whole cycle runs with per-call global
    // shootdowns (the naive regime) instead of trusting local flushes.
    for (unsigned i = 0; i < pinned; ++i) {
      jvm.kernel().SysUnpin(worker_ctx(i));
    }
    pin_refusals_.Add();
    for (auto& mover : movers_) {
      mover->set_tlb_policy(sim::TlbPolicy::kGlobalPerCall);
    }
    return;
  }
  pinned_this_cycle_ = true;
  for (auto& mover : movers_) {
    mover->set_tlb_policy(config_.move.tlb_policy);
  }
  if (epoch_flush_coordinator_ != nullptr &&
      epoch_flush_coordinator_->ConsumeEpochFlush(jvm.address_space().asid())) {
    // The fleet epoch broadcast (issued after this cycle's last pre-compact
    // translation, at the adjust/compact boundary) already left every remote
    // TLB clean for this process; a second shootdown would re-pay the IPI
    // round the batching exists to share.
    metrics().counter("gc.flushes_coalesced").Add();
    return;
  }
  jvm.kernel().SysFlushProcessTlbs(jvm.address_space(), ctx);
}

void SvagcCollector::CompactionEpilogue(rt::Jvm& jvm, sim::CpuContext& ctx) {
  if (pinned_this_cycle_) {
    for (unsigned i = 0; i < gc_threads(); ++i) {
      jvm.kernel().SysUnpin(worker_ctx(i));
    }
    pinned_this_cycle_ = false;
  }
  // Publish this cycle's move statistics; the registry is their only tally.
  // What the cycle moved also feeds the adaptive threshold: it decides
  // whether next cycle's copy alternative prices at the cached or DRAM rate.
  last_cycle_moved_bytes_ = 0;
  for (auto& mover : movers_) {
    const MoveObjectStats moved = mover->TakeStats();
    moved.PublishTo(metrics());
    last_cycle_moved_bytes_ += moved.bytes_copied + moved.bytes_swapped;
  }

  // GC-driven eviction advice: the dense prefix [heap base, comp_pnt) is
  // exactly the span the plan refused to move, so it will not be touched by
  // the next compaction either — demote it ahead of demand so mutator-hot
  // pages keep the near tier.
  if (config_.advise_cold_dense_prefix &&
      jvm.address_space().far_tier() != nullptr) {
    const std::uint64_t bytes =
        AlignDown(last_plan_stats().dense_prefix_bytes, sim::kPageSize);
    if (bytes > 0) {
      const std::uint64_t demoted = jvm.kernel().SysMadviseCold(
          jvm.address_space(), ctx, jvm.heap().base(), bytes);
      metrics().counter("gc.advised_cold_pages").Add(demoted);
    }
  }
}

}  // namespace svagc::core
