#include "core/concurrent_svagc_collector.h"

#include <utility>

#include "support/check.h"

namespace svagc::core {

ConcurrentSvagcCollector::ConcurrentSvagcCollector(
    sim::Machine& machine, unsigned first_core,
    const ConcurrentSvagcConfig& config)
    : gc::CollectorBase(machine, /*gc_threads=*/1, first_core),
      config_(config),
      concurrent_cycles_(metrics().counter("gc.concurrent_cycles")),
      pin_refusals_(metrics().counter("gc.pin_refusals")) {
  SVAGC_CHECK(config_.quantum_cycles > 0);
  SVAGC_CHECK(config_.satb_buffer_capacity >= 1);
  // Table I row 3: concurrent relocation never aggregates. Each swap is
  // charged inside the move that issues it, where the window budget check
  // sees it, and no batch outlives its window.
  config_.move.aggregate = false;
}

ConcurrentSvagcCollector::~ConcurrentSvagcCollector() = default;

void ConcurrentSvagcCollector::ArmCycle(rt::Jvm& jvm) {
  // (Re)install the barrier: the tenant factory wires it at construction,
  // but the oracle restores snapshots and swaps collectors under a live Jvm.
  if (jvm.gc_barrier() != this) jvm.set_gc_barrier(this);

  bitmap_ = std::make_unique<gc::MarkBitmap>(jvm.heap());  // fresh = all clear
  mark_stack_.clear();
  satb_buffers_.assign(jvm.num_mutators(), {});
  satb_handoff_.clear();
  satb_enqueued_ = 0;
  remark_drained_ = 0;
  marked_objects_ = 0;
  marked_bytes_ = 0;
  top_at_plan_ = 0;
  plan_cursor_ = 0;
  comp_pnt_ = 0;
  plan_ = gc::CompactionPlan{};
  live_.clear();
  fwd_.clear();
  rev_.clear();
  moves_.clear();
  evac_cursor_ = 0;
  last_executed_src_ = 0;
  relocation_started_ = false;
  adjust_started_ = false;
  roots_adjusted_ = false;
  adjusted_upto_ = 0;
  adjust_cursor_ = 0;
  cycle_allocs_.clear();
  alloc_adjust_cursor_ = 0;
  allocs_adjusted_ = false;
  filler_cursor_ = 0;
  rec_ = rt::GcCycleRecord{};

  // [STW] init-mark: stack every root target. O(roots) — no TLAB retire, no
  // heap touch. From here the SATB barrier preserves the snapshot.
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    jvm.roots().ForEachSlot([&](rt::vaddr_t& slot) {
      ctx.account.Charge(sim::CostKind::kCompute, costs().root_slot);
      mark_stack_.push_back(slot);
    });
  });
  rec_.mark += window;
  RecordStwWindow(ConcPhase::kMark, window);
  satb_on_ = true;
  phase_ = ConcPhase::kMark;
}

void ConcurrentSvagcCollector::StepPhase() {
  SVAGC_CHECK(phase_ != ConcPhase::kIdle);
  switch (phase_) {
    case ConcPhase::kMark:
      StepMarkQuantum();
      return;
    case ConcPhase::kRemark:
      StepRemark();
      return;
    case ConcPhase::kPlan:
      StepPlanQuantum();
      return;
    case ConcPhase::kEvacuate:
      StepEvacQuantum();
      return;
    case ConcPhase::kAdjust:
      StepAdjustQuantum();
      return;
    case ConcPhase::kFinalize:
      StepFinalizeQuantum();
      return;
    case ConcPhase::kIdle:
      break;
  }
  SVAGC_CHECK(false);
}

void ConcurrentSvagcCollector::RecordStwWindow(ConcPhase phase, double cycles) {
  stw_windows_.push_back(StwWindow{phase, cycles});
  // Per-window pauses, not per-cycle: pauses.max() is the honest max-pause
  // figure for a collector whose cycle is many short windows.
  log_.pauses.Record(static_cast<std::uint64_t>(cycles));
}

void ConcurrentSvagcCollector::MarkOne(rt::Jvm& jvm, sim::CpuContext& ctx,
                                       rt::vaddr_t addr) {
  if (!bitmap_->TestAndSet(addr)) return;
  ctx.account.Charge(sim::CostKind::kCompute, costs().mark_visit);
  rt::ObjectView view(jvm.address_space(), addr);
  ++marked_objects_;
  marked_bytes_ += view.size();
  const std::uint32_t refs = view.num_refs();
  for (std::uint32_t i = 0; i < refs; ++i) {
    ctx.account.Charge(sim::CostKind::kCompute, costs().mark_ref);
    const rt::vaddr_t target = view.ref(i);
    if (target != 0) mark_stack_.push_back(target);
  }
}

void ConcurrentSvagcCollector::StepMarkQuantum() {
  rt::Jvm& jvm = cycle_jvm();
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    const double start = ctx.account.total();
    for (;;) {
      if (mark_stack_.empty()) {
        if (satb_handoff_.empty()) break;
        // Absorb one handed-off SATB buffer (charged like reference reads).
        std::vector<rt::vaddr_t> buffer = std::move(satb_handoff_.back());
        satb_handoff_.pop_back();
        for (const rt::vaddr_t value : buffer) {
          ctx.account.Charge(sim::CostKind::kCompute, costs().mark_ref);
          mark_stack_.push_back(value);
        }
      }
      const rt::vaddr_t addr = mark_stack_.back();
      mark_stack_.pop_back();
      MarkOne(jvm, ctx, addr);
      if (ctx.account.total() - start >= config_.quantum_cycles) break;
    }
  });
  concurrent_cycles_.Add(static_cast<std::uint64_t>(window));
  // Marking is complete only when both the stack AND the handed-off buffers
  // are drained; residual (partial) per-mutator buffers are remark's job —
  // which is what makes remark O(SATB buffer), not O(heap).
  if (mark_stack_.empty() && satb_handoff_.empty()) {
    phase_ = ConcPhase::kRemark;
  }
}

void ConcurrentSvagcCollector::StepRemark() {
  rt::Jvm& jvm = cycle_jvm();
  rt::Heap& heap = jvm.heap();
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    for (auto& buffer : satb_buffers_) {
      for (const rt::vaddr_t value : buffer) {
        ctx.account.Charge(sim::CostKind::kCompute, costs().mark_ref);
        mark_stack_.push_back(value);
        ++remark_drained_;
      }
      buffer.clear();
    }
    for (auto& buffer : satb_handoff_) {  // defensive; normally empty here
      for (const rt::vaddr_t value : buffer) {
        ctx.account.Charge(sim::CostKind::kCompute, costs().mark_ref);
        mark_stack_.push_back(value);
        ++remark_drained_;
      }
    }
    satb_handoff_.clear();
    while (!mark_stack_.empty()) {
      const rt::vaddr_t addr = mark_stack_.back();
      mark_stack_.pop_back();
      MarkOne(jvm, ctx, addr);
    }
  });
  satb_on_ = false;
  // The record's columns double as window labels for this collector:
  // mark = init-mark, adjust = remark, compact = evacuation, other = flip.
  rec_.adjust += window;
  RecordStwWindow(ConcPhase::kRemark, window);

  // Parsable-heap point: retire TLABs and snapshot the plan's upper bound.
  // Everything allocated from here lands above top_at_plan (all TLABs are
  // empty, so refills and raw allocations bump the top) and is exempt from
  // the plan — it never moves this cycle.
  jvm.RetireAllTlabs();
  top_at_plan_ = heap.top();
  plan_ = gc::CompactionPlan(heap, config_.region_bytes);
  plan_cursor_ = heap.base();
  comp_pnt_ = heap.base();
  phase_ = ConcPhase::kPlan;
}

// Resumable ComputeForwarding (see kPlan in the header): the same CalcNewAdd
// step walked over [plan_cursor_, top_at_plan) in budget-bounded quanta,
// additionally feeding the fwd/rev side maps the barrier serves from (the
// STW path reads forwarding words instead, which evacuation clobbers before
// our adjust).
void ConcurrentSvagcCollector::StepPlanQuantum() {
  rt::Jvm& jvm = cycle_jvm();
  rt::Heap& heap = jvm.heap();
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    sim::AddressSpace& as = jvm.address_space();
    const double start = ctx.account.total();
    while (plan_cursor_ < top_at_plan_) {
      const std::uint64_t word = as.ReadWord(plan_cursor_);
      if (rt::IsFillerWord(word)) {
        const std::uint64_t gap = rt::FillerGapBytes(word);
        ctx.account.Charge(sim::CostKind::kCompute,
                           costs().heap_scan_per_byte *
                               static_cast<double>(gap));
        plan_cursor_ += gap;
      } else {
        const std::uint64_t size = word;
        const rt::vaddr_t addr = plan_cursor_;
        ctx.account.Charge(sim::CostKind::kCompute,
                           costs().heap_scan_per_byte *
                               static_cast<double>(size));
        if (bitmap_->IsMarked(addr)) {
          ctx.account.Charge(sim::CostKind::kCompute, costs().forward_obj);
          const rt::vaddr_t dst =
              gc::CalcNewAdd(heap, addr, size, /*evacuate_all_live=*/false,
                             comp_pnt_, plan_, plan_.fillers);
          live_.push_back(addr);
          ++plan_.live_objects;
          plan_.live_bytes += size;
          if (dst != addr) {
            fwd_.emplace(addr, dst);
            rev_.emplace(dst, addr);
          }
        }
        plan_cursor_ += size;
      }
      if (ctx.account.total() - start >= config_.quantum_cycles) break;
    }
  });
  concurrent_cycles_.Add(static_cast<std::uint64_t>(window));
  if (plan_cursor_ >= top_at_plan_) {
    plan_.new_top = comp_pnt_;
    // Flatten to globally ascending source order — region-ascending,
    // in-region ascending, exactly the proven serial compaction order, so a
    // resumable cursor is dependency-safe: when a move executes, every
    // source byte its destination overlaps has already been evacuated.
    for (const auto& region : plan_.region_moves) {
      for (const gc::Move& move : region) moves_.push_back(move);
    }
    evac_cursor_ = 0;
    phase_ = ConcPhase::kEvacuate;
  }
}

void ConcurrentSvagcCollector::StepEvacQuantum() {
  rt::Jvm& jvm = cycle_jvm();
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    if (!relocation_started_) {
      relocation_started_ = true;
      mover_.emplace(jvm, config_.move);
      // Algorithm 4's pin, held across every window of this cycle's
      // evacuation (the worker context persists between windows; mutators
      // run on their own contexts and do not disturb the declaration).
      if (config_.move.use_swapva) {
        if (jvm.kernel().SysPin(ctx) == sim::SysStatus::kOk) {
          pinned_this_cycle_ = true;
        } else {
          pin_refusals_.Add();
          mover_->set_tlb_policy(sim::TlbPolicy::kGlobalPerCall);
        }
      }
    }
    // Per-window shootdown: mutators translated freely since the last
    // window, so remote TLBs may hold entries for pages this window will
    // swap. Only needed in the kLocalOnly regime — with per-call global
    // shootdowns (pin refused) every swap pays its own broadcast.
    if (pinned_this_cycle_ &&
        config_.move.tlb_policy == sim::TlbPolicy::kLocalOnly) {
      sim::AddressSpace* spaces[] = {&jvm.address_space()};
      if (jvm.kernel().SysFlushFleetTlbs(spaces, ctx) != sim::SysStatus::kOk) {
        // Broadcast lost (kDropEpochBroadcast injection): the local half is
        // applied but remote cores may still hold stale entries — re-issue
        // as a plain process-wide flush before any swap of this window.
        jvm.kernel().SysFlushProcessTlbs(jvm.address_space(), ctx);
        metrics().counter("gc.window_flush_fallbacks").Add();
      }
    }
    const double start = ctx.account.total();
    while (evac_cursor_ < moves_.size()) {
      const gc::Move& move = moves_[evac_cursor_];
      const double item_start = ctx.account.total();
      ctx.account.Charge(sim::CostKind::kCompute, costs().move_dispatch);
      if (move.run) {
        mover_->MoveRun(ctx, move.src, move.dst, move.size, move.objects);
      } else {
        mover_->Move(ctx, move.src, move.dst, move.size);
      }
      counters().objects_moved.Add(move.objects);
      NoteStep(ctx.account.total() - item_start);
      last_executed_src_ = move.src;
      ++evac_cursor_;
      if (ctx.account.total() - start >= config_.quantum_cycles) break;
    }
    if (evac_cursor_ == moves_.size() && pinned_this_cycle_) {
      jvm.kernel().SysUnpin(ctx);
      pinned_this_cycle_ = false;
    }
  });
  rec_.compact += window;
  RecordStwWindow(ConcPhase::kEvacuate, window);
  if (evac_cursor_ == moves_.size()) phase_ = ConcPhase::kAdjust;
}

// Concurrent adjust: every live object is visited once, at its *new*
// location, in ascending old-address order; mutators interleave between
// quanta, and the barrier's OwnerAdjusted() watermark keeps the two namings
// coherent (slots below the watermark hold new-form values, above old-form).
void ConcurrentSvagcCollector::StepAdjustQuantum() {
  rt::Jvm& jvm = cycle_jvm();
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    sim::AddressSpace& as = jvm.address_space();
    const double start = ctx.account.total();
    adjust_started_ = true;
    if (!roots_adjusted_) {
      // Roots first, via the fwd map — the old headers' forwarding words
      // were overwritten when evacuation reused their space.
      jvm.roots().ForEachSlot([&](rt::vaddr_t& slot) {
        ctx.account.Charge(sim::CostKind::kCompute, costs().root_slot);
        slot = ToNewForm(slot);
      });
      roots_adjusted_ = true;
    }
    while (adjust_cursor_ < live_.size() &&
           ctx.account.total() - start < config_.quantum_cycles) {
      const rt::vaddr_t old_addr = live_[adjust_cursor_];
      rt::ObjectView view(as, ToNewForm(old_addr));
      ctx.account.Charge(sim::CostKind::kCompute,
                         costs().heap_scan_per_byte *
                             static_cast<double>(view.size()));
      ctx.account.Charge(sim::CostKind::kCompute, costs().adjust_obj);
      const std::uint32_t refs = view.num_refs();
      for (std::uint32_t i = 0; i < refs; ++i) {
        ctx.account.Charge(sim::CostKind::kCompute, costs().adjust_ref);
        const rt::vaddr_t target = view.ref(i);
        if (target != 0) view.set_ref(i, ToNewForm(target));
      }
      adjusted_upto_ = old_addr;
      ++adjust_cursor_;
    }
    if (adjust_cursor_ == live_.size()) {
      // Objects allocated after remark: above top_at_plan, never moved, but
      // their slots may name moved objects in old form.
      while (alloc_adjust_cursor_ < cycle_allocs_.size() &&
             ctx.account.total() - start < config_.quantum_cycles) {
        rt::ObjectView view(as, cycle_allocs_[alloc_adjust_cursor_]);
        ctx.account.Charge(sim::CostKind::kCompute, costs().adjust_obj);
        const std::uint32_t refs = view.num_refs();
        for (std::uint32_t i = 0; i < refs; ++i) {
          ctx.account.Charge(sim::CostKind::kCompute, costs().adjust_ref);
          const rt::vaddr_t target = view.ref(i);
          if (target != 0) view.set_ref(i, ToNewForm(target));
        }
        ++alloc_adjust_cursor_;
      }
      if (alloc_adjust_cursor_ == cycle_allocs_.size()) {
        allocs_adjusted_ = true;
      }
    }
  });
  concurrent_cycles_.Add(static_cast<std::uint64_t>(window));
  if (roots_adjusted_ && adjust_cursor_ == live_.size() && allocs_adjusted_) {
    phase_ = ConcPhase::kFinalize;
  }
}

void ConcurrentSvagcCollector::StepFinalizeQuantum() {
  rt::Jvm& jvm = cycle_jvm();
  rt::Heap& heap = jvm.heap();
  if (filler_cursor_ < plan_.fillers.size()) {
    // Concurrent filler quanta: re-tile the reclaimed destination-side gaps.
    const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
      const double start = ctx.account.total();
      while (filler_cursor_ < plan_.fillers.size()) {
        const auto& [addr, bytes] = plan_.fillers[filler_cursor_];
        ctx.account.Charge(sim::CostKind::kCompute, 12);
        heap.WriteFiller(addr, bytes);
        ++filler_cursor_;
        if (ctx.account.total() - start >= config_.quantum_cycles) break;
      }
    });
    concurrent_cycles_.Add(static_cast<std::uint64_t>(window));
    return;  // the flip runs as its own (next) quantum
  }

  // [STW] flip: O(1). Publish the compacted top — unless mid-cycle
  // allocation raised the heap top past the plan's snapshot, in which case
  // the reclaimed span [new_top, top_at_plan) becomes one filler gap and
  // the top stays (the allocations above it are live).
  const double window = RunSerialPhase([&](sim::CpuContext& /*ctx*/) {
    if (heap.top() == top_at_plan_) {
      heap.SetTopAfterGc(plan_.new_top);
    } else {
      heap.WriteFiller(plan_.new_top, top_at_plan_ - plan_.new_top);
    }
    // Publish this cycle's move statistics, as SvagcCollector's compaction
    // epilogue does, so the benches and oracle read the same ledger.
    mover_->stats().PublishTo(metrics());
    mover_.reset();
  });
  rec_.other += window;
  RecordStwWindow(ConcPhase::kFinalize, window);
  // Not GcLog::Record — that would re-Record the cycle total into the pause
  // histogram on top of the per-window entries.
  log_.cycles.push_back(rec_);
  ++log_.collections;
  PublishCycleTelemetry(rec_, gc::CycleTasks{});
  phase_ = ConcPhase::kIdle;
}

// --- rt::GcBarrier ---------------------------------------------------------

rt::vaddr_t ConcurrentSvagcCollector::ReadRef(rt::Jvm& jvm, rt::vaddr_t obj,
                                              std::uint32_t slot,
                                              unsigned logical_thread) {
  (void)logical_thread;
  if (!cycle_active()) return jvm.View(obj).ref(slot);
  const rt::vaddr_t raw =
      rt::ObjectView(jvm.address_space(), CurrentLocation(obj)).ref(slot);
  if (raw == 0) return 0;
  // Adjusted owners hold new-form values; hand the mutator back the cycle's
  // old-form name. Unambiguous: live destinations are pairwise disjoint and
  // disjoint from unmoved live extents.
  return OwnerAdjusted(obj) ? ToOldForm(raw) : raw;
}

void ConcurrentSvagcCollector::WriteRef(rt::Jvm& jvm, rt::vaddr_t obj,
                                        std::uint32_t slot, rt::vaddr_t value,
                                        unsigned logical_thread) {
  if (!cycle_active()) {
    jvm.View(obj).set_ref(slot, value);
    return;
  }
  rt::ObjectView view(jvm.address_space(), CurrentLocation(obj));
  if (satb_on_) {
    // Snapshot-at-the-beginning: the overwritten value was reachable at the
    // snapshot through this slot; preserve it for the marker.
    const rt::vaddr_t prev = view.ref(slot);
    if (prev != 0) SatbEnqueue(prev, logical_thread);
  }
  rt::vaddr_t stored = value;
  if (value != 0 && OwnerAdjusted(obj)) stored = ToNewForm(value);
  view.set_ref(slot, stored);
}

rt::vaddr_t ConcurrentSvagcCollector::ReadRoot(rt::Jvm& jvm,
                                               rt::RootSet::Handle handle) {
  const rt::vaddr_t value = jvm.roots().Get(handle);
  if (!cycle_active() || value == 0 || !roots_adjusted_) return value;
  return ToOldForm(value);
}

void ConcurrentSvagcCollector::WriteRoot(rt::Jvm& jvm,
                                         rt::RootSet::Handle handle,
                                         rt::vaddr_t value) {
  // No SATB needed for roots: init-mark stacked every root target, and any
  // value stored later is already reachable elsewhere or allocated black.
  rt::vaddr_t stored = value;
  if (cycle_active() && value != 0 && roots_adjusted_) {
    stored = ToNewForm(value);
  }
  jvm.roots().Set(handle, stored);
}

rt::vaddr_t ConcurrentSvagcCollector::Resolve(rt::Jvm& jvm, rt::vaddr_t ref) {
  (void)jvm;
  if (!cycle_active()) return ref;
  return CurrentLocation(ref);
}

void ConcurrentSvagcCollector::OnAlloc(rt::Jvm& jvm, rt::vaddr_t addr,
                                       unsigned logical_thread) {
  (void)logical_thread;
  if (!cycle_active()) return;
  if (satb_on_) {
    // Allocate black: objects born while marking are live this cycle. They
    // sit below the eventual top_at_plan, so the plan walk relocates them
    // like any other live object.
    if (bitmap_->TestAndSet(addr)) {
      ++marked_objects_;
      marked_bytes_ += jvm.View(addr).size();
    }
    return;
  }
  if (top_at_plan_ != 0) {
    // Post-remark allocation: above the plan snapshot, exempt from moving,
    // slots adjusted by the tail of the adjust phase.
    SVAGC_DCHECK(addr >= top_at_plan_);
    cycle_allocs_.push_back(addr);
  }
}

void ConcurrentSvagcCollector::AtSafepoint(rt::Jvm& jvm,
                                           unsigned logical_thread) {
  (void)logical_thread;
  if (cycle_active()) {
    // Advance one *concurrent-class* quantum: marking, planning, adjusting,
    // or filler writing. Never an evacuation window or the flip — those are
    // STW and must not run under a mutator operation's feet.
    const bool concurrent_ready =
        phase_ == ConcPhase::kMark || phase_ == ConcPhase::kPlan ||
        phase_ == ConcPhase::kAdjust ||
        (phase_ == ConcPhase::kFinalize &&
         filler_cursor_ < plan_.fillers.size());
    if (concurrent_ready) StepPhase();
    return;
  }
  if (config_.trigger_fraction > 0) {
    rt::Heap& heap = jvm.heap();
    if (static_cast<double>(heap.used()) >=
        config_.trigger_fraction * static_cast<double>(heap.capacity())) {
      BeginCycle(jvm);
    }
  }
}

void ConcurrentSvagcCollector::SatbEnqueue(rt::vaddr_t value,
                                           unsigned logical_thread) {
  std::vector<rt::vaddr_t>& buffer =
      satb_buffers_[logical_thread % satb_buffers_.size()];
  buffer.push_back(value);
  ++satb_enqueued_;
  if (buffer.size() >= config_.satb_buffer_capacity) {
    satb_handoff_.push_back(std::move(buffer));
    buffer.clear();
  }
}

}  // namespace svagc::core
