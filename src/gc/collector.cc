#include "gc/collector.h"

namespace svagc::gc {

namespace {

// Process-wide pid allocator for trace tracks: collector instances get
// distinct Perfetto "processes" in creation order (deterministic because
// harnesses construct collectors from the driving thread).
std::uint32_t NextTracePid() {
  static std::atomic<std::uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

GcCounters::GcCounters(telemetry::MetricsRegistry& metrics)
    : bytes_copied(metrics.counter("gc.bytes_copied")),
      objects_moved(metrics.counter("gc.objects_moved")) {}

CompactionPlan::CompactionPlan(const rt::Heap& heap,
                               std::uint64_t region_bytes)
    : heap_base(heap.base()),
      region_bytes(region_bytes),
      region_moves(CeilDiv(heap.capacity(), region_bytes)),
      region_dep(region_moves.size(), kNoDep) {}

void CompactionPlan::AddMove(const Move& move) {
  const std::uint64_t region = RegionOf(move.src);
  const std::uint64_t bound = RegionOf(move.ExtentEnd(move.dst) - 1);
  std::uint64_t& dep = region_dep[region];
  dep = dep == kNoDep ? bound : std::max(dep, bound);
  region_moves[region].push_back(move);
}

std::uint64_t CompactionPlan::moved_objects() const {
  std::uint64_t objects = 0;
  for (const auto& moves : region_moves) {
    for (const Move& move : moves) objects += move.objects;
  }
  return objects;
}

CollectorBase::CollectorBase(sim::Machine& machine, unsigned gc_threads,
                             unsigned first_core,
                             telemetry::MetricsRegistry* shared_metrics)
    : machine_(machine),
      own_metrics_(shared_metrics == nullptr
                       ? std::make_unique<telemetry::MetricsRegistry>()
                       : nullptr),
      metrics_(shared_metrics != nullptr ? *shared_metrics : *own_metrics_),
      counters_(metrics_),
      trace_pid_(NextTracePid()) {
  SVAGC_CHECK(gc_threads >= 1);
  workers_.reserve(gc_threads);
  for (unsigned i = 0; i < gc_threads; ++i) {
    // Each GC worker owns a distinct simulated core (wrapping if the
    // machine is smaller), so per-core TLB effects are modeled per worker.
    workers_.push_back(std::make_unique<sim::CpuContext>(
        machine, (first_core + i) % machine.num_cores()));
  }
  gang_ = std::make_unique<WorkerGang>(gc_threads);
}

CollectorBase::~CollectorBase() = default;

void CollectorBase::Collect(rt::Jvm& jvm) {
  if (cycle_active()) {
    // Finishing the in-flight cycle IS the requested collection, provided
    // it collects the same Jvm.
    SVAGC_CHECK(cycle_jvm_ == &jvm);
  } else {
    BeginCycle(jvm);
  }
  FinishCycle();
}

void CollectorBase::BeginCycle(rt::Jvm& jvm) {
  SVAGC_CHECK(!cycle_active());  // one cycle in flight per collector
  cycle_jvm_ = &jvm;
  ArmCycle(jvm);
}

double CollectorBase::RunParallelPhase(
    const std::function<void(unsigned, sim::CpuContext&)>& body) {
  std::vector<double> before(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    before[i] = workers_[i]->account.total();
  }
  gang_->Run([&](unsigned worker_id) { body(worker_id, *workers_[worker_id]); });
  double critical_path = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    critical_path =
        std::max(critical_path, workers_[i]->account.total() - before[i]);
  }
  return critical_path;
}

double CollectorBase::RunSerialPhase(
    const std::function<void(sim::CpuContext&)>& body) {
  const double before = workers_[0]->account.total();
  body(*workers_[0]);
  return workers_[0]->account.total() - before;
}

void CollectorBase::BeginPhaseCapture() {
  capture_base_.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    capture_base_[i] = workers_[i]->account.total();
  }
}

std::vector<double> CollectorBase::EndPhaseCapture() const {
  std::vector<double> deltas(workers_.size(), 0.0);
  if (capture_base_.size() != workers_.size()) return deltas;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    deltas[i] = workers_[i]->account.total() - capture_base_[i];
  }
  return deltas;
}

std::vector<TaskSpan> CollectorBase::WorkerTaskSpans(
    const char* prefix, const std::vector<double>& deltas) {
  std::vector<TaskSpan> tasks;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    if (deltas[i] <= 0) continue;
    tasks.push_back(TaskSpan{static_cast<unsigned>(i),
                             std::string(prefix) + "/w" + std::to_string(i),
                             0.0, deltas[i]});
  }
  return tasks;
}

void CollectorBase::PublishCycleTelemetry(const rt::GcCycleRecord& rec,
                                          const CycleTasks& tasks) {
  telemetry::TraceRecorder* tracer = machine_.tracer();
  if (tracer == nullptr) {
    trace_clock_ += rec.Total();
    return;
  }
  static constexpr const char* kPhaseNames[5] = {"mark", "forward", "adjust",
                                                 "compact", "other"};
  const double durs[5] = {rec.mark, rec.forward, rec.adjust, rec.compact,
                          rec.other};
  const double t0 = trace_clock_;
  tracer->AddSpan("gc", "cycle", trace_pid_, 0, t0, rec.Total());
  double t = t0;
  for (std::size_t p = 0; p < 5; ++p) {
    tracer->AddSpan("gc.phase", kPhaseNames[p], trace_pid_, 0, t, durs[p]);
    for (const TaskSpan& task : tasks[p]) {
      tracer->AddSpan("gc.task", task.name, trace_pid_, 1 + task.track,
                      t + task.start, task.dur);
    }
    t += durs[p];
  }
  // Advance by Total() (the cycle span's duration), not by the running `t`:
  // the two can differ in the last ulp, and nested spans must never outlive
  // their parent.
  trace_clock_ = t0 + rec.Total();
}

}  // namespace svagc::gc
