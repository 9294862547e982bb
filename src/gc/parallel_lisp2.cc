#include "gc/parallel_lisp2.h"

#include <algorithm>
#include <queue>
#include <set>
#include <thread>

namespace svagc::gc {

namespace {

// Deterministic list-scheduling replay of the work-stealing compaction.
//
// The real execution order of the ready queue is host-dependent (whichever
// worker happens to be idle claims the next region), but each region's
// modeled cost is not: MoveObject/FlushMoves charges depend only on the
// region's move list and the collector configuration — CopyBytes is costed
// by size and locality alone, SwapVA charges through a call-local PMD cache,
// aggregation batches never span regions (FlushMoves runs per region), and
// the bandwidth-contention factor is constant across the phase. So the
// phase's pause is recomputed here as the makespan of a deterministic
// greedy schedule: W modeled workers, lowest-index ready region first,
// earliest-available worker first, dependencies released at their
// predecessors' modeled completion times. Ties break on (time, region) and
// (time, worker id), making the result a pure function of the plan — the
// property every reported number in this repo must have.
double ReplayListSchedule(unsigned workers,
                          const std::vector<std::uint64_t>& work,
                          const std::vector<std::vector<std::uint64_t>>& watchers,
                          std::vector<std::uint32_t> deps_left,
                          const std::vector<double>& cost,
                          std::vector<TaskSpan>* schedule = nullptr) {
  std::set<std::uint64_t> ready;
  for (const std::uint64_t r : work) {
    if (deps_left[r] == 0) ready.insert(r);
  }
  using WorkerSlot = std::pair<double, unsigned>;  // (available at, id)
  std::priority_queue<WorkerSlot, std::vector<WorkerSlot>,
                      std::greater<WorkerSlot>>
      idle;
  for (unsigned w = 0; w < workers; ++w) idle.push({0.0, w});

  struct Completion {
    double time;
    std::uint64_t region;
    unsigned worker;
    bool operator>(const Completion& o) const {
      if (time != o.time) return time > o.time;
      return region > o.region;
    }
  };
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      events;

  double now = 0;
  double makespan = 0;
  std::size_t completed = 0;
  while (completed < work.size()) {
    while (!ready.empty() && !idle.empty()) {
      const auto [avail, w] = idle.top();
      idle.pop();
      const std::uint64_t r = *ready.begin();
      ready.erase(ready.begin());
      const double start = std::max(avail, now);
      if (schedule != nullptr) {
        schedule->push_back(
            TaskSpan{w, "region/" + std::to_string(r), start, cost[r]});
      }
      events.push({start + cost[r], r, w});
    }
    SVAGC_CHECK(!events.empty());  // a cyclic dependency would deadlock here
    const Completion done = events.top();
    events.pop();
    now = done.time;
    makespan = std::max(makespan, now);
    ++completed;
    idle.push({now, done.worker});
    for (const std::uint64_t waiter : watchers[done.region]) {
      if (--deps_left[waiter] == 0) ready.insert(waiter);
    }
  }
  return makespan;
}

}  // namespace

void ParallelLisp2::ArmCycle(rt::Jvm& jvm) {
  // The parsable-heap point: open TLABs leave unfilled gaps the forwarding
  // walk cannot parse.
  jvm.RetireAllTlabs();
  cycle_ = std::make_unique<CycleState>(jvm.heap());
}

void ParallelLisp2::StepPhase() {
  SVAGC_CHECK(cycle_ != nullptr);
  switch (cycle_->next) {
    case Phase::kMark:
      StepMark();
      cycle_->next = Phase::kForward;
      return;
    case Phase::kForward:
      StepForward();
      cycle_->next = Phase::kAdjust;
      return;
    case Phase::kAdjust:
      StepAdjust();
      cycle_->next = Phase::kCompact;
      return;
    case Phase::kCompact: {
      StepCompact();
      CycleState& c = *cycle_;
      log_.Record(c.rec);
      PublishCycleTelemetry(c.rec, c.tasks);
      cycle_.reset();
      return;
    }
  }
}

// Phase I: parallel marking.
void ParallelLisp2::StepMark() {
  CycleState& c = *cycle_;
  c.bitmap.Clear();
  BeginPhaseCapture();
  MarkParallel(cycle_jvm(), c.bitmap, *this, &c.rec.mark);
  if (tracer() != nullptr) {
    c.tasks[0] = WorkerTaskSpans("mark", EndPhaseCapture());
  }
}

// Phase II: forwarding calculation. The parallel region-summary pipeline
// needs >= 2 workers to beat the single-sweep serial reference (its
// summary + install passes read every live header twice).
void ParallelLisp2::StepForward() {
  CycleState& c = *cycle_;
  rt::Jvm& jvm = cycle_jvm();
  BeginPhaseCapture();
  if (forwarding_mode_ == ForwardingMode::kParallelSummary &&
      gc_threads() > 1) {
    c.fwd = ComputeForwardingParallel(jvm, c.bitmap, *this, region_bytes_,
                                      EvacuateAllLive(), &c.rec.forward);
  } else {
    c.rec.forward = RunSerialPhase([&](sim::CpuContext& ctx) {
      c.fwd = ComputeForwarding(jvm, c.bitmap, ctx, costs(), region_bytes_,
                                EvacuateAllLive());
    });
  }
  // Plan-optimizer pass (still part of the forwarding phase for pause
  // accounting): rewrites the move lists before phases III/IV consume them.
  last_plan_stats_ = PlanOptimizerStats{};
  if (plan_optimizer_.enabled()) {
    const std::uint64_t threshold = PlanSwapThresholdPages(jvm);
    c.rec.forward += RunSerialPhase([&](sim::CpuContext& ctx) {
      last_plan_stats_ =
          OptimizePlan(jvm, c.fwd, plan_optimizer_, threshold, ctx, costs(),
                       machine_.cost(), EvacuateAllLive());
    });
    metrics().counter("gc.plan.runs_coalesced")
        .Add(last_plan_stats_.runs_coalesced);
    metrics().counter("gc.plan.dense_prefix_bytes")
        .Add(last_plan_stats_.dense_prefix_bytes);
    // Republished, not accumulated: the cycle's effective threshold choice.
    metrics().counter("gc.plan.threshold_pages")
        .Store(last_plan_stats_.threshold_pages);
    auto& run_hist = metrics().histogram("gc.plan.objects_per_run");
    for (const std::uint32_t len : last_plan_stats_.run_lengths) {
      run_hist.Record(static_cast<double>(len));
    }
  }
  if (tracer() != nullptr) {
    c.tasks[1] = WorkerTaskSpans("forward", EndPhaseCapture());
  }
}

// Phase III: parallel pointer adjustment.
void ParallelLisp2::StepAdjust() {
  CycleState& c = *cycle_;
  rt::Jvm& jvm = cycle_jvm();
  const unsigned stride = gc_threads();
  BeginPhaseCapture();
  c.rec.adjust = RunParallelPhase([&](unsigned worker, sim::CpuContext& ctx) {
    AdjustReferences(jvm, c.fwd.live, ctx, costs(), worker, stride);
  });
  if (tracer() != nullptr) {
    c.tasks[2] = WorkerTaskSpans("adjust", EndPhaseCapture());
  }
}

// Phase IV: compaction (prologue, parallel evacuation, epilogue).
void ParallelLisp2::StepCompact() {
  CycleState& c = *cycle_;
  rt::Jvm& jvm = cycle_jvm();
  rt::Heap& heap = jvm.heap();
  const bool tracing = tracer() != nullptr;
  const CompactionPlan& plan = c.fwd.plan;

  c.rec.other += RunSerialPhase(
      [&](sim::CpuContext& ctx) { CompactionPrologue(jvm, ctx); });

  // During the STW compaction this JVM's mutator is stopped and
  // compact_workers copy streams run instead. Parallel memmove compaction
  // therefore saturates memory bandwidth (the paper's [18] argument: more
  // GC threads stop helping once DRAM is saturated), while SwapVA workers
  // barely register. Mark/adjust are latency-bound and exempt.
  const unsigned compact_workers = compact_parallelism();
  const unsigned prev_streams = machine_.active_memory_streams();
  machine_.SetActiveMemoryStreams(prev_streams - 1 + compact_workers);

  BeginPhaseCapture();
  if (compact_workers <= 1) {
    // Serial compaction (the Shenandoah-like baseline's copying phase):
    // in-address-order evacuation needs no dependency tracking.
    const std::uint64_t num_regions = plan.region_moves.size();
    c.rec.compact = RunSerialPhase([&](sim::CpuContext& ctx) {
      for (std::uint64_t region = 0; region < num_regions; ++region) {
        for (const Move& move : plan.region_moves[region]) {
          MoveObject(jvm, ctx, /*worker=*/0, move);
        }
        FlushMoves(jvm, ctx, /*worker=*/0);
      }
    });
    if (tracing) c.tasks[3] = WorkerTaskSpans("compact", EndPhaseCapture());
  } else if (scheduler_ == CompactionSchedulerKind::kStaticBlocks) {
    c.rec.compact = CompactStaticBlocks(jvm, plan, compact_workers);
    if (tracing) c.tasks[3] = WorkerTaskSpans("compact", EndPhaseCapture());
  } else {
    // Work stealing runs against scratch accounts, so worker deltas carry
    // nothing here; the deterministic replay supplies the task spans.
    c.rec.compact = CompactWorkStealing(jvm, plan, compact_workers,
                                        tracing ? &c.tasks[3] : nullptr);
  }

  machine_.SetActiveMemoryStreams(prev_streams);

  c.rec.other += RunSerialPhase([&](sim::CpuContext& ctx) {
    CompactionEpilogue(jvm, ctx);
    // Re-tile the reclaimed gaps so the heap stays linearly parsable, and
    // publish the new top.
    for (const auto& [addr, bytes] : plan.fillers) {
      ctx.account.Charge(sim::CostKind::kCompute, 12);
      heap.WriteFiller(addr, bytes);
    }
    heap.SetTopAfterGc(plan.new_top);
  });
  if (tracing && c.rec.other > 0) {
    // Prologue + epilogue both run serially on worker 0.
    c.tasks[4].push_back(TaskSpan{0, "other/w0", 0.0, c.rec.other});
  }
}

void ParallelLisp2::ExecuteRegion(rt::Jvm& jvm, sim::CpuContext& ctx,
                                  unsigned worker, const CompactionPlan& plan,
                                  std::uint64_t region) {
  const double before = ctx.account.total();
  for (const Move& move : plan.region_moves[region]) {
    MoveObject(jvm, ctx, worker, move);
  }
  FlushMoves(jvm, ctx, worker);
  region_cost_[region] = ctx.account.total() - before;
}

// Legacy scheduler: each worker owns a contiguous block of regions (HotSpot
// assigns destination regions to threads the same way) and walks it in
// ascending order. Deterministic balanced distribution keeps the modeled
// critical path a property of the algorithm, not of host thread scheduling
// (dynamic claiming without the replay would degenerate to one worker on a
// single-CPU build host). Dependency waits check a single monotone
// completed-prefix frontier instead of re-scanning every region up to the
// dependency bound on each spin. Spinning costs host time, not modeled
// cycles — on real hardware these waits overlap with useful work on the
// blocked worker's siblings, and the modeled critical path already reflects
// the per-worker work imbalance.
double ParallelLisp2::CompactStaticBlocks(rt::Jvm& jvm,
                                          const CompactionPlan& plan,
                                          unsigned compact_workers) {
  const std::uint64_t num_regions = plan.region_moves.size();
  region_done_ = std::vector<std::atomic<bool>>(num_regions);
  for (auto& done : region_done_) done.store(false, std::memory_order_relaxed);
  frontier_.store(0, std::memory_order_relaxed);
  region_cost_.assign(num_regions, 0.0);

  const std::uint64_t block =
      (num_regions + compact_workers - 1) / compact_workers;
  return RunParallelPhase([&](unsigned worker, sim::CpuContext& ctx) {
    if (worker >= compact_workers) return;
    const std::uint64_t begin = worker * block;
    const std::uint64_t end =
        std::min<std::uint64_t>(num_regions, begin + block);
    for (std::uint64_t region = begin; region < end; ++region) {
      const std::uint64_t dep = plan.region_dep[region];
      // Prefix semantics: every region below min(dep + 1, region) must be
      // evacuated before this one may write into their span.
      const std::uint64_t need =
          (dep == kNoDep) ? 0 : std::min<std::uint64_t>(dep + 1, region);
      while (frontier_.load(std::memory_order_acquire) < need) {
        std::this_thread::yield();
      }
      ExecuteRegion(jvm, ctx, worker, plan, region);
      PublishRegionDone(region);
    }
  });
}

void ParallelLisp2::PublishRegionDone(std::uint64_t region) {
  region_done_[region].store(true, std::memory_order_release);
  SpinLockGuard guard(sched_lock_);
  std::uint64_t f = frontier_.load(std::memory_order_relaxed);
  const std::uint64_t n = region_done_.size();
  while (f < n && region_done_[f].load(std::memory_order_acquire)) ++f;
  frontier_.store(f, std::memory_order_release);
}

// Work-stealing scheduler. Readiness is computed from byte-precise move
// extents: region r must wait exactly for the earlier regions whose *source*
// extents intersect r's destination extent — r's moves write there (bytes
// for memmove, PTEs for SwapVA, page-rounded for large objects), so those
// sources must be evacuated first. Regions whose sources lie entirely below
// r's lowest destination, or entirely above its highest, need no ordering —
// strictly weaker than the legacy "all regions up to region_dep" prefix
// rule, which is what lets small-slide cycles (garbage-poor heaps) still
// run regions in parallel. Source extents are needed (not just region
// indices) because a large object can span region boundaries: its source
// tail lives in higher regions than the region that owns the move.
double ParallelLisp2::CompactWorkStealing(rt::Jvm& jvm,
                                          const CompactionPlan& plan,
                                          unsigned compact_workers,
                                          std::vector<TaskSpan>* compact_tasks) {
  const std::uint64_t num_regions = plan.region_moves.size();
  watchers_.assign(num_regions, {});
  deps_left_ = std::vector<std::atomic<std::uint32_t>>(num_regions);
  region_cost_.assign(num_regions, 0.0);

  std::vector<std::uint64_t> work;  // regions with moves, ascending
  for (std::uint64_t r = 0; r < num_regions; ++r) {
    if (!plan.region_moves[r].empty()) work.push_back(r);
  }

  // Per non-empty region: the span its moves read from and write to. Moves
  // are emitted in ascending source (and therefore destination) order, so
  // the first/last move bound the extents (Move::ExtentEnd rounds large
  // ends up to whole pages). Both sequences are ascending across regions,
  // which keeps each region's dependency set a contiguous run.
  struct Extent {
    rt::vaddr_t src_lo, src_hi;  // [lo, hi)
    rt::vaddr_t dst_lo, dst_hi;
  };
  std::vector<Extent> extents(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Move& first = plan.region_moves[work[i]].front();
    const Move& last = plan.region_moves[work[i]].back();
    extents[i] = {first.src, last.ExtentEnd(last.src), first.dst,
                  last.ExtentEnd(last.dst)};
  }

  std::vector<std::uint32_t> initial_deps(num_regions, 0);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Extent& e = extents[i];
    std::uint32_t need = 0;
    // Candidates: earlier regions with src_lo < our dst_hi (a prefix, by
    // monotonicity); among them, those with src_hi > our dst_lo (a suffix).
    for (std::size_t j = i; j-- > 0;) {
      if (extents[j].src_hi <= e.dst_lo) break;  // all lower j end lower
      if (extents[j].src_lo < e.dst_hi) {
        watchers_[work[j]].push_back(work[i]);
        ++need;
      }
    }
    initial_deps[work[i]] = need;
    deps_left_[work[i]].store(need, std::memory_order_relaxed);
  }

  while (deques_.size() < compact_workers) {
    deques_.push_back(std::make_unique<WorkStealingDeque<std::uint64_t>>());
  }
  for (unsigned w = 0; w < compact_workers; ++w) deques_[w]->Reset();
  // Seed the initially-ready regions round-robin; idle workers steal the
  // rest of the balance at run time.
  unsigned seed = 0;
  for (const std::uint64_t r : work) {
    if (initial_deps[r] == 0) deques_[seed++ % compact_workers]->Push(r);
  }
  regions_left_.store(work.size(), std::memory_order_release);

  RunParallelPhase([&](unsigned worker, sim::CpuContext& ctx) {
    if (worker >= compact_workers) return;
    WorkStealingDeque<std::uint64_t>& mine = *deques_[worker];
    while (regions_left_.load(std::memory_order_acquire) > 0) {
      std::optional<std::uint64_t> region = mine.Pop();
      for (unsigned i = 1; !region && i < compact_workers; ++i) {
        region = deques_[(worker + i) % compact_workers]->Steal();
      }
      if (!region) {
        std::this_thread::yield();
        continue;
      }
      // Execute against a zeroed scratch account, then restore: the region
      // cost must be accumulated from zero (a delta against the worker's
      // running total picks up magnitude-dependent rounding, i.e. the cost
      // would depend on which regions this worker happened to claim first),
      // and the phase's cost is reported from the replay, so leaving
      // host-ordered charges on the account would leak that nondeterminism
      // into the later serial phases' deltas.
      const sim::CycleAccount saved = ctx.account;
      ctx.account.Reset();
      ExecuteRegion(jvm, ctx, worker, plan, *region);
      ctx.account = saved;
      // Release dependents. The last decrement pushes the waiter onto *this*
      // worker's deque (Push is owner-only); the acq_rel RMW chain on
      // deps_left_ plus the deque's release/acquire hand-off order every
      // predecessor's moves before the waiter runs.
      for (const std::uint64_t waiter : watchers_[*region]) {
        if (deps_left_[waiter].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          mine.Push(waiter);
        }
      }
      regions_left_.fetch_sub(1, std::memory_order_release);
    }
  });

  // Deterministic scheduler shape counters (the real steal counts are
  // host-dependent and deliberately not exported).
  std::uint64_t dep_edges = 0;
  for (const auto& w : watchers_) dep_edges += w.size();
  metrics().counter("gc.compact_regions").Add(work.size());
  metrics().counter("gc.compact_dep_edges").Add(dep_edges);

  // Report the deterministic modeled makespan, not the racy per-worker
  // account deltas (see ReplayListSchedule).
  return ReplayListSchedule(compact_workers, work, watchers_, initial_deps,
                            region_cost_, compact_tasks);
}

void ParallelLisp2::MoveObject(rt::Jvm& jvm, sim::CpuContext& ctx,
                               unsigned worker, const Move& move) {
  (void)worker;
  ctx.account.Charge(sim::CostKind::kCompute, costs().move_dispatch);
  jvm.address_space().CopyBytes(ctx, move.dst, move.src, move.size,
                                sim::AddressSpace::CopyLocality::kCold);
  counters().bytes_copied.Add(move.size);
  // Coalesced runs are one copy but `objects` live objects.
  counters().objects_moved.Add(move.objects);
}

}  // namespace svagc::gc
