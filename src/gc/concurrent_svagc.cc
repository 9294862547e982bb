#include "gc/concurrent_svagc.h"

#include <utility>

#include "support/check.h"

namespace svagc::gc {

ConcurrentSvagc::ConcurrentSvagc(sim::Machine& machine, unsigned gc_threads,
                                 unsigned first_core,
                                 const ConcurrentSvagcConfig& config)
    : CollectorBase(machine, gc_threads, first_core),
      config_(config),
      concurrent_cycles_(metrics().counter("gc.concurrent_cycles")) {
  SVAGC_CHECK(config_.quantum_cycles > 0);
  SVAGC_CHECK(config_.satb_buffer_capacity >= 1);
}

ConcurrentSvagc::~ConcurrentSvagc() = default;

void ConcurrentSvagc::Collect(rt::Jvm& jvm) {
  if (!cycle_active()) BeginCycle(jvm);
  SVAGC_CHECK(jvm_ == &jvm);
  FinishCycle();
}

void ConcurrentSvagc::BeginCycle(rt::Jvm& jvm) {
  SVAGC_CHECK(phase_ == ConcPhase::kIdle);
  jvm_ = &jvm;
  // (Re)install the barrier: the tenant factory wires it at construction,
  // but the oracle restores snapshots and swaps collectors under a live Jvm.
  if (jvm.gc_barrier() != this) jvm.set_gc_barrier(this);

  bitmap_ = std::make_unique<MarkBitmap>(jvm.heap());  // fresh = all clear
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
  plan_ = CompactionPlan{};
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

void ConcurrentSvagc::StepPhase() {
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

void ConcurrentSvagc::RecordStwWindow(ConcPhase phase, double cycles) {
  stw_windows_.push_back(StwWindow{phase, cycles});
  // Per-window pauses, not per-cycle: pauses.max() is the honest max-pause
  // figure for a collector whose cycle is many short windows.
  log_.pauses.Record(static_cast<std::uint64_t>(cycles));
}

void ConcurrentSvagc::MarkOne(rt::Jvm& jvm, sim::CpuContext& ctx,
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

void ConcurrentSvagc::StepMarkQuantum() {
  rt::Jvm& jvm = *jvm_;
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

void ConcurrentSvagc::StepRemark() {
  rt::Jvm& jvm = *jvm_;
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
  plan_.region_bytes = config_.region_bytes;
  const std::uint64_t num_regions =
      CeilDiv(heap.capacity(), config_.region_bytes);
  plan_.region_moves.resize(num_regions);
  plan_.region_dep.assign(num_regions, kNoDep);
  plan_cursor_ = heap.base();
  comp_pnt_ = heap.base();
  phase_ = ConcPhase::kPlan;
}

// Resumable replica of ComputeForwarding (forwarding.cc): same destinations,
// same fillers, same region moves/deps, same charges — but walked over
// [plan_cursor_, top_at_plan) in budget-bounded quanta, and additionally
// feeding the fwd/rev side maps the barrier serves from (the STW path reads
// forwarding words instead, which evacuation clobbers before our adjust).
void ConcurrentSvagc::StepPlanQuantum() {
  rt::Jvm& jvm = *jvm_;
  rt::Heap& heap = jvm.heap();
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    sim::AddressSpace& as = jvm.address_space();
    const double start = ctx.account.total();
    const auto region_of = [&](rt::vaddr_t addr) {
      return (addr - heap.base()) / plan_.region_bytes;
    };
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
          const bool large = heap.IsLargeObject(size);
          const rt::vaddr_t dst = heap.AlignFor(size, comp_pnt_);
          if (dst > comp_pnt_) {
            plan_.fillers.emplace_back(comp_pnt_, dst - comp_pnt_);
          }
          rt::ObjectView view(as, addr);
          view.set_forwarding(dst);
          live_.push_back(addr);
          ++plan_.live_objects;
          plan_.live_bytes += size;
          if (dst != addr) {
            SVAGC_DCHECK(dst < addr);  // sliding compaction only moves left
            const std::uint64_t region = region_of(addr);
            const rt::vaddr_t dst_hi =
                (large ? AlignUp(dst + size, sim::kPageSize) : dst + size) - 1;
            auto& dep = plan_.region_dep[region];
            const std::uint64_t candidate = region_of(dst_hi);
            dep = (dep == kNoDep) ? candidate : std::max(dep, candidate);
            plan_.region_moves[region].push_back(Move{addr, dst, size, large});
            ++plan_.moved_objects;
            fwd_.emplace(addr, dst);
            rev_.emplace(dst, addr);
          }
          comp_pnt_ = dst + size;
          const rt::vaddr_t post = heap.AlignFor(size, comp_pnt_);
          if (post > comp_pnt_) {
            plan_.fillers.emplace_back(comp_pnt_, post - comp_pnt_);
            comp_pnt_ = post;
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
      for (const Move& move : region) moves_.push_back(move);
    }
    evac_cursor_ = 0;
    phase_ = ConcPhase::kEvacuate;
  }
}

void ConcurrentSvagc::StepEvacQuantum() {
  rt::Jvm& jvm = *jvm_;
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    if (!relocation_started_) {
      relocation_started_ = true;
      EvacBegin(jvm, ctx);
    }
    EvacQuantumPrologue(jvm, ctx);
    const double start = ctx.account.total();
    while (evac_cursor_ < moves_.size()) {
      const Move& move = moves_[evac_cursor_];
      const double item_start = ctx.account.total();
      MoveOne(jvm, ctx, move);
      NoteStep(ctx.account.total() - item_start);
      last_executed_src_ = move.src;
      ++evac_cursor_;
      if (ctx.account.total() - start >= config_.quantum_cycles) break;
    }
    FlushEvacBatch(jvm, ctx);
    if (evac_cursor_ == moves_.size()) EvacEnd(jvm, ctx);
  });
  rec_.compact += window;
  RecordStwWindow(ConcPhase::kEvacuate, window);
  if (evac_cursor_ == moves_.size()) phase_ = ConcPhase::kAdjust;
}

void ConcurrentSvagc::MoveOne(rt::Jvm& jvm, sim::CpuContext& ctx,
                              const Move& move) {
  ctx.account.Charge(sim::CostKind::kCompute, costs().move_dispatch);
  jvm.address_space().CopyBytes(ctx, move.dst, move.src, move.size,
                                sim::AddressSpace::CopyLocality::kCold);
  counters().bytes_copied.Add(move.size);
  counters().objects_moved.Add(move.objects);
}

// Concurrent adjust: every live object is visited once, at its *new*
// location, in ascending old-address order; mutators interleave between
// quanta, and the barrier's OwnerAdjusted() watermark keeps the two namings
// coherent (slots below the watermark hold new-form values, above old-form).
void ConcurrentSvagc::StepAdjustQuantum() {
  rt::Jvm& jvm = *jvm_;
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

void ConcurrentSvagc::StepFinalizeQuantum() {
  rt::Jvm& jvm = *jvm_;
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
  const double window = RunSerialPhase([&](sim::CpuContext& ctx) {
    if (heap.top() == top_at_plan_) {
      heap.SetTopAfterGc(plan_.new_top);
    } else {
      heap.WriteFiller(plan_.new_top, top_at_plan_ - plan_.new_top);
    }
    CycleFlip(jvm, ctx);
  });
  rec_.other += window;
  RecordStwWindow(ConcPhase::kFinalize, window);
  // Not GcLog::Record — that would re-Record the cycle total into the pause
  // histogram on top of the per-window entries.
  log_.cycles.push_back(rec_);
  ++log_.collections;
  PublishCycleTelemetry(rec_, CycleTasks{});
  phase_ = ConcPhase::kIdle;
}

// --- rt::GcBarrier ---------------------------------------------------------

rt::vaddr_t ConcurrentSvagc::ReadRef(rt::Jvm& jvm, rt::vaddr_t obj,
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

void ConcurrentSvagc::WriteRef(rt::Jvm& jvm, rt::vaddr_t obj,
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

rt::vaddr_t ConcurrentSvagc::ReadRoot(rt::Jvm& jvm,
                                      rt::RootSet::Handle handle) {
  const rt::vaddr_t value = jvm.roots().Get(handle);
  if (!cycle_active() || value == 0 || !roots_adjusted_) return value;
  return ToOldForm(value);
}

void ConcurrentSvagc::WriteRoot(rt::Jvm& jvm, rt::RootSet::Handle handle,
                                rt::vaddr_t value) {
  // No SATB needed for roots: init-mark stacked every root target, and any
  // value stored later is already reachable elsewhere or allocated black.
  rt::vaddr_t stored = value;
  if (cycle_active() && value != 0 && roots_adjusted_) {
    stored = ToNewForm(value);
  }
  jvm.roots().Set(handle, stored);
}

rt::vaddr_t ConcurrentSvagc::Resolve(rt::Jvm& jvm, rt::vaddr_t ref) {
  (void)jvm;
  if (!cycle_active()) return ref;
  return CurrentLocation(ref);
}

void ConcurrentSvagc::OnAlloc(rt::Jvm& jvm, rt::vaddr_t addr,
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

void ConcurrentSvagc::AtSafepoint(rt::Jvm& jvm, unsigned logical_thread) {
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

void ConcurrentSvagc::SatbEnqueue(rt::vaddr_t value,
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

}  // namespace svagc::gc
