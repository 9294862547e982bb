#include "core/concurrent_svagc_collector.h"

namespace svagc::core {

ConcurrentSvagcCollector::ConcurrentSvagcCollector(
    sim::Machine& machine, unsigned gc_threads, unsigned first_core,
    const ConcurrentSvagcCoreConfig& config)
    : gc::ConcurrentSvagc(machine, gc_threads, first_core, config.concurrent),
      config_(config),
      pin_refusals_(metrics().counter("gc.pin_refusals")) {
  if (!config_.pinned_evacuation) {
    // Without pinning, correctness requires a global shootdown per call.
    config_.move.tlb_policy = sim::TlbPolicy::kGlobalPerCall;
  }
}

ConcurrentSvagcCollector::~ConcurrentSvagcCollector() = default;

ObjectMover& ConcurrentSvagcCollector::MoverFor(rt::Jvm& jvm) {
  if (mover_jvm_ != &jvm) {
    mover_.reset();
    mover_jvm_ = &jvm;
  }
  if (!mover_) mover_ = std::make_unique<ObjectMover>(jvm, config_.move);
  return *mover_;
}

void ConcurrentSvagcCollector::MoveOne(rt::Jvm& jvm, sim::CpuContext& ctx,
                                       const gc::Move& move) {
  ctx.account.Charge(sim::CostKind::kCompute, costs().move_dispatch);
  ObjectMover& mover = MoverFor(jvm);
  if (move.run) {
    mover.MoveRun(ctx, move.src, move.dst, move.size, move.objects);
  } else {
    mover.Move(ctx, move.src, move.dst, move.size);
  }
  counters().objects_moved.Add(move.objects);
}

void ConcurrentSvagcCollector::FlushEvacBatch(rt::Jvm& jvm,
                                              sim::CpuContext& ctx) {
  // A batch open across a window boundary would defer page placement past
  // the point mutators resume reading those pages.
  if (mover_jvm_ == &jvm && mover_) mover_->Flush(ctx);
}

void ConcurrentSvagcCollector::EvacBegin(rt::Jvm& jvm, sim::CpuContext& ctx) {
  (void)ctx;
  ObjectMover& mover = MoverFor(jvm);
  pinned_this_cycle_ = false;
  if (!config_.pinned_evacuation || !config_.move.use_swapva) return;
  // Algorithm 4's pin, held across every window of this cycle's evacuation
  // (the worker context persists between windows; mutators run on their own
  // contexts and do not disturb the declaration).
  if (jvm.kernel().SysPin(worker_ctx(0)) != sim::SysStatus::kOk) {
    pin_refusals_.Add();
    mover.set_tlb_policy(sim::TlbPolicy::kGlobalPerCall);
    return;
  }
  pinned_this_cycle_ = true;
  mover.set_tlb_policy(config_.move.tlb_policy);
}

void ConcurrentSvagcCollector::EvacQuantumPrologue(rt::Jvm& jvm,
                                                   sim::CpuContext& ctx) {
  // Per-window shootdown: mutators translated freely since the last window,
  // so remote TLBs may hold entries for pages this window will swap. Only
  // needed in the kLocalOnly regime — with per-call global shootdowns
  // (pin refused / pinning off) every swap pays its own broadcast.
  if (!config_.move.use_swapva || !pinned_this_cycle_) return;
  if (config_.move.tlb_policy != sim::TlbPolicy::kLocalOnly) return;
  sim::AddressSpace* spaces[] = {&jvm.address_space()};
  if (jvm.kernel().SysFlushFleetTlbs(spaces, ctx) != sim::SysStatus::kOk) {
    // Broadcast lost (kDropEpochBroadcast injection): the local half is
    // applied but remote cores may still hold stale entries — re-issue as a
    // plain process-wide flush before any swap of this window.
    jvm.kernel().SysFlushProcessTlbs(jvm.address_space(), ctx);
    metrics().counter("gc.window_flush_fallbacks").Add();
  }
}

void ConcurrentSvagcCollector::EvacEnd(rt::Jvm& jvm, sim::CpuContext& ctx) {
  (void)ctx;
  if (pinned_this_cycle_) {
    jvm.kernel().SysUnpin(worker_ctx(0));
    pinned_this_cycle_ = false;
  }
}

void ConcurrentSvagcCollector::CycleFlip(rt::Jvm& jvm, sim::CpuContext& ctx) {
  (void)jvm;
  (void)ctx;
  // Publish this cycle's move statistics, as SvagcCollector's compaction
  // epilogue does, so the benches and oracle read the same ledger.
  const MoveObjectStats cycle =
      mover_ ? mover_->TakeStats() : MoveObjectStats{};
  cycle.PublishTo(metrics());
}

}  // namespace svagc::core
