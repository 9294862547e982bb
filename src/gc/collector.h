// Collector base class: the one cycle driver (the stepwise engine API and
// the Collect() built on it), phase timing over modeled cycles, worker
// contexts, and the shared LISP2 scaffolding the concrete collectors
// specialize.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gc/gc_costs.h"
#include "gc/mark_bitmap.h"
#include "runtime/jvm.h"
#include "simkernel/machine.h"
#include "support/worker_gang.h"

namespace svagc::gc {

// One live-object relocation, produced by the forwarding phase and consumed
// by the compaction phase.
struct Move {
  rt::vaddr_t src = 0;
  rt::vaddr_t dst = 0;
  std::uint64_t size = 0;
  bool large = false;  // >= Threshold_Swapping pages (page-aligned dst)
  // Plan-optimizer coalesced run: [src, src+size) is a span of whole live
  // objects sliding rigidly by (src - dst), so every page fully inside the
  // span is exclusively covered by the run's own bytes — the mover may swap
  // the aligned interior even though no single member object is large.
  bool run = false;
  std::uint32_t objects = 1;  // live objects this move covers

  // One past the last byte the move touches with its object at `at` (its
  // src or its dst). SwapVA exchanges whole pages, so a large object's
  // extent ends on a page boundary; a run's interior swaps stay inside its
  // bytes.
  rt::vaddr_t ExtentEnd(rt::vaddr_t at) const {
    return large ? AlignUp(at + size, sim::kPageSize) : at + size;
  }

  bool operator==(const Move&) const = default;
};

inline constexpr std::uint64_t kNoDep = ~0ULL;

// Dest-side gaps [addr, addr + bytes) to refill with filler words.
using FillerList = std::vector<std::pair<rt::vaddr_t, std::uint64_t>>;

// Full compaction plan for one GC cycle.
struct CompactionPlan {
  CompactionPlan() = default;
  // An empty plan over `heap`'s whole capacity, cut into regions of
  // `region_bytes`.
  CompactionPlan(const rt::Heap& heap, std::uint64_t region_bytes);

  std::uint64_t RegionOf(rt::vaddr_t addr) const {
    return (addr - heap_base) / region_bytes;
  }

  // Files `move` under its source region and raises that region's
  // dependency bound to the region holding the end of the move's destination
  // extent (a swap's page rotation writes up to it; the source extent's tail
  // lies in the move's own region or above). Distinct regions may be filled
  // concurrently.
  void AddMove(const Move& move);

  // Live objects the plan moves: the sum of Move::objects.
  std::uint64_t moved_objects() const;

  rt::vaddr_t heap_base = 0;
  std::uint64_t region_bytes = 0;
  std::vector<std::vector<Move>> region_moves;  // indexed by source region
  // Highest destination region each source region writes into (dependency
  // bound for the parallel compaction ordering). kNoDep means "no moves".
  std::vector<std::uint64_t> region_dep;
  // Written into the heap after all moves complete.
  FillerList fillers;
  rt::vaddr_t new_top = 0;
  std::uint64_t live_objects = 0;
  std::uint64_t live_bytes = 0;
};

// One sub-span inside a phase, at a phase-relative start time. `track`
// selects the Perfetto worker track (tid = 1 + track).
struct TaskSpan {
  unsigned track = 0;
  std::string name;
  double start = 0;
  double dur = 0;
};

// Worker/region task spans for one cycle, indexed by phase:
// {0 mark, 1 forward, 2 adjust, 3 compact, 4 other}.
using CycleTasks = std::array<std::vector<TaskSpan>, 5>;

// The registry counters collectors bump per move, resolved once so the move
// paths never look a name up. Every writer adds, which lets a front end and
// its inner collector share one registry.
struct GcCounters {
  explicit GcCounters(telemetry::MetricsRegistry& metrics);

  telemetry::Counter& bytes_copied;  // memmove path
  telemetry::Counter& objects_moved;
};

// Every collector is a stepwise cycle engine. A cycle is a sequence of
// bounded work quanta: BeginCycle() arms it, each StepPhase() call runs one
// quantum, and cycle_active() reports whether quanta remain. For the STW
// collectors a quantum is a whole phase; the concurrent collector yields
// *within* phases via resumable cursors, so a single cycle is many quanta.
// Collect() is built on the same steps, so stepped and monolithic cycles
// are bit-identical.
//
// The fleet arbiter drives engines through exactly this interface: it
// round-robins StepPhase() across co-scheduled tenants until each reaches its
// relocation boundary (the point where the collector is about to move objects
// and needs the epoch TLB flush), broadcasts one batched multi-ASID flush,
// then steps each engine to completion.
//
// Callers never prepare the heap: an engine makes it parsable (retires the
// mutators' TLABs) before its first linear heap walk.
class CollectorBase : public rt::CollectorIface {
 public:
  // `shared_metrics`: publish into that registry instead of owning one (the
  // generational front end passes its inner collector's).
  CollectorBase(sim::Machine& machine, unsigned gc_threads,
                unsigned first_core,
                telemetry::MetricsRegistry* shared_metrics = nullptr);
  ~CollectorBase() override;

  // Full collection: finishes the cycle in flight (an allocation failure
  // while a stepped cycle is open) or begins one, then steps it to the end.
  void Collect(rt::Jvm& jvm) final;

  // Arms a cycle on `jvm`. Must not be called while cycle_active().
  void BeginCycle(rt::Jvm& jvm);

  // Runs one work quantum. Pre: cycle_active().
  virtual void StepPhase() = 0;

  // True while quanta remain in the armed cycle.
  virtual bool cycle_active() const = 0;

  // True when the next StepPhase() begins relocating objects (and would
  // benefit from an externally provided TLB shootdown). Always false once
  // relocation has started or when no cycle is active.
  virtual bool at_relocation_boundary() const = 0;

  // Drains the armed cycle to completion.
  void FinishCycle() {
    while (cycle_active()) StepPhase();
  }

  unsigned gc_threads() const { return static_cast<unsigned>(workers_.size()); }
  sim::CpuContext& worker_ctx(unsigned i) { return *workers_[i]; }
  WorkerGang& gang() { return *gang_; }
  const GcCosts& costs() const { return costs_; }

  // Runs `body(worker_id, ctx)` on every worker; returns the critical-path
  // modeled cycles (max per-worker delta), which is the phase's pause
  // contribution on a machine with >= gc_threads free cores.
  double RunParallelPhase(
      const std::function<void(unsigned, sim::CpuContext&)>& body);

  // Serial phases run on worker 0's context; returns the cycle delta.
  double RunSerialPhase(const std::function<void(sim::CpuContext&)>& body);

  // Collector-side telemetry, the only tally of every GC event total
  // ("gc.bytes_copied", "gc.bytes_swapped", "gc.swap_calls", ...; see
  // DESIGN.md section 8 for the name schema).
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

  // Convenience: the machine's attached trace sink (null when tracing off).
  telemetry::TraceRecorder* tracer() const { return machine_.tracer(); }

 protected:
  // The engine's part of BeginCycle: set up the cycle's state on `jvm`.
  virtual void ArmCycle(rt::Jvm& jvm) = 0;

  // The Jvm the armed cycle collects. Pre: a cycle has been begun.
  rt::Jvm& cycle_jvm() const {
    SVAGC_DCHECK(cycle_jvm_ != nullptr);
    return *cycle_jvm_;
  }

  // Brackets one phase for task-span capture: Begin snapshots every worker's
  // account total, End returns the per-worker deltas accumulated since (a
  // phase may span several Run*Phase calls, e.g. the forwarding pipeline).
  void BeginPhaseCapture();
  std::vector<double> EndPhaseCapture() const;

  // Turns the per-worker deltas from EndPhaseCapture into phase-relative
  // TaskSpans named "<prefix>/w<i>" (zero-cost workers are skipped).
  static std::vector<TaskSpan> WorkerTaskSpans(const char* prefix,
                                               const std::vector<double>& deltas);

  // End-of-cycle hook every engine calls after log_.Record(rec): advances
  // this collector's modeled-cycle trace clock and, when a tracer is
  // attached, emits the cycle/phase/task spans on it.
  // Phases are laid out back-to-back in mark, forward, adjust, compact,
  // other order, so per-phase durations sum to the cycle duration exactly.
  void PublishCycleTelemetry(const rt::GcCycleRecord& rec,
                             const CycleTasks& tasks);

  const GcCounters& counters() const { return counters_; }

  sim::Machine& machine_;
  GcCosts costs_ = DefaultGcCosts();

 private:
  std::vector<std::unique_ptr<sim::CpuContext>> workers_;
  std::unique_ptr<WorkerGang> gang_;
  std::unique_ptr<telemetry::MetricsRegistry> own_metrics_;  // null if shared
  telemetry::MetricsRegistry& metrics_;
  const GcCounters counters_;
  std::vector<double> capture_base_;
  rt::Jvm* cycle_jvm_ = nullptr;  // set by BeginCycle
  double trace_clock_ = 0;  // modeled-cycle timestamp of the next cycle span
  const std::uint32_t trace_pid_;
};

}  // namespace svagc::gc
