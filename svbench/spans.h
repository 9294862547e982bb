// Host-clock spans for the benchmark's traced run.
//
// The traced run measures the simulator only from outside: it wraps the
// public seams a tenant is built from (the collector, the allocation front
// end and the memsim trace sink) in forwarding objects that open and close
// spans here. Each span's self time is its duration minus the part its child
// spans cover, so the self times of one replay sum to at most its wall time.
//
// Spans open and close on the driving thread, which is where the workload,
// the front end and the collector entry points run. GC worker threads also
// issue memsim accesses; the memsim wrapper serializes those and reports
// their duration here, and they count as children of whichever driving-thread
// span is open at the time.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/generational_collector.h"
#include "runtime/jvm.h"
#include "simkernel/trace.h"
#include "telemetry/trace_recorder.h"

namespace svbench {

enum class Layer {
  kSetup,     // workloads.setup: machine, tenants, Workload::Setup
  kIterate,   // workloads.iterate: one Workload::Iterate call
  kCollect,   // gc.collect: CollectorIface::Collect
  kGenGc,     // core.gen_gc: a front-end allocation that ran a collection
  kAlloc,     // runtime.alloc: a front-end allocation that ran none
  kOnAccess,  // memsim.on_access: MemoryHierarchy::OnAccess
  kFleetRun,  // fleet.run: fleet::RunFleet, opaque
  kCount,
};

inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kCount);

const char* LayerName(Layer layer);

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  // Opens a span on the driving thread, nested in the innermost open one.
  void Open();
  // Closes the innermost span and books it under `layer`. The layer is named
  // only here because the front end learns after the call whether it
  // collected.
  void Close(Layer layer);

  // A memsim access of `ns` host nanoseconds from any thread. Ignored while
  // no span is open.
  void AddMemsim(std::int64_t ns);

  double self_ms(Layer layer) const {
    const std::int64_t ns = layer == Layer::kOnAccess
                                ? memsim_ns_.load(std::memory_order_relaxed)
                                : self_ns_[Index(layer)];
    return static_cast<double>(ns) / 1e6;
  }
  double self_sum_ms() const;

  // Appends the coarse spans (everything but the per-call runtime.alloc and
  // memsim.on_access spans, which only accumulate) to `recorder` as Perfetto
  // events on a host-microsecond clock.
  void Export(svagc::telemetry::TraceRecorder& recorder) const;

 private:
  struct Frame {
    Clock::time_point start;
    std::int64_t child_ns = 0;
    std::int64_t memsim_at_open = 0;
    std::int64_t child_memsim_ns = 0;
  };
  struct Recorded {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  static std::size_t Index(Layer layer) {
    return static_cast<std::size_t>(layer);
  }

  std::vector<Frame> stack_;
  std::array<std::int64_t, kNumLayers> self_ns_{};
  Clock::time_point epoch_ = Clock::now();
  std::vector<Recorded> recorded_;

  std::atomic<bool> open_{false};
  std::atomic<std::int64_t> memsim_ns_{0};
};

// Forwarding collector: the tenant's real collector behind gc.collect spans.
class TracedCollector final : public svagc::rt::CollectorIface {
 public:
  TracedCollector(std::unique_ptr<svagc::rt::CollectorIface> inner,
                  SpanLog& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  const char* name() const override { return inner_->name(); }
  void Collect(svagc::rt::Jvm& jvm) override;

  std::unique_ptr<svagc::rt::CollectorIface> Release() {
    return std::move(inner_);
  }

 private:
  std::unique_ptr<svagc::rt::CollectorIface> inner_;
  SpanLog& spans_;
};

// Forwarding allocation front end over the generational collector.
class TracedFrontEnd final : public svagc::rt::AllocFrontEnd {
 public:
  TracedFrontEnd(svagc::core::GenerationalCollector& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}

  svagc::rt::vaddr_t AllocateObject(svagc::rt::Jvm& jvm, std::uint64_t bytes,
                                    unsigned logical_thread) override;

  std::uint64_t calls() const { return calls_; }

 private:
  svagc::core::GenerationalCollector& inner_;
  SpanLog& spans_;
  std::uint64_t calls_ = 0;
};

// Forwarding memsim sink. Serializes accesses (the hierarchy behind it takes
// a lock per access anyway) so their durations never overlap.
class TracedMemSink final : public svagc::sim::MemTraceSink {
 public:
  TracedMemSink(svagc::sim::MemTraceSink& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}

  void OnAccess(std::uint64_t vaddr, std::uint32_t size,
                bool is_write) override;

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t lines() const { return lines_; }

 private:
  svagc::sim::MemTraceSink& inner_;
  SpanLog& spans_;
  std::mutex mutex_;
  std::uint64_t accesses_ = 0;  // guarded by mutex_
  std::uint64_t lines_ = 0;     // guarded by mutex_
};

}  // namespace svbench
