#include "spans.h"

#include "support/check.h"

namespace svbench {

namespace {

// Memsim models 64-byte lines at every level.
constexpr std::uint64_t kLineBytes = 64;

// Bounds the in-memory span list of one replay; later spans still count
// towards the self times, they are only left out of the exported file.
constexpr std::size_t kMaxRecorded = 1u << 20;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSetup:
      return "workloads.setup";
    case Layer::kIterate:
      return "workloads.iterate";
    case Layer::kCollect:
      return "gc.collect";
    case Layer::kGenGc:
      return "core.gen_gc";
    case Layer::kAlloc:
      return "runtime.alloc";
    case Layer::kOnAccess:
      return "memsim.on_access";
    case Layer::kFleetRun:
      return "fleet.run";
    case Layer::kCount:
      break;
  }
  return "?";
}

void SpanLog::Open() {
  Frame frame{Clock::now()};
  frame.memsim_at_open = memsim_ns_.load(std::memory_order_relaxed);
  stack_.push_back(frame);
  open_.store(true, std::memory_order_relaxed);
}

void SpanLog::Close(Layer layer) {
  const Clock::time_point end = Clock::now();
  SVAGC_CHECK(!stack_.empty());
  Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - frame.start)
          .count();
  const std::int64_t memsim =
      memsim_ns_.load(std::memory_order_relaxed) - frame.memsim_at_open;
  // Memsim accesses made inside a child span are already inside the child's
  // duration; only the rest is subtracted here.
  const std::int64_t self =
      dur - frame.child_ns - (memsim - frame.child_memsim_ns);
  self_ns_[Index(layer)] += self;
  if (stack_.empty()) {
    open_.store(false, std::memory_order_relaxed);
  } else {
    stack_.back().child_ns += dur;
    stack_.back().child_memsim_ns += memsim;
  }
  if (layer != Layer::kAlloc && recorded_.size() < kMaxRecorded) {
    recorded_.push_back(Recorded{
        layer,
        std::chrono::duration_cast<std::chrono::nanoseconds>(frame.start -
                                                             epoch_)
            .count(),
        dur});
  }
}

void SpanLog::AddMemsim(std::int64_t ns) {
  if (!open_.load(std::memory_order_relaxed)) return;
  memsim_ns_.fetch_add(ns, std::memory_order_relaxed);
}

double SpanLog::self_sum_ms() const {
  double sum = 0;
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    sum += self_ms(static_cast<Layer>(i));
  }
  return sum;
}

void SpanLog::Export(svagc::telemetry::TraceRecorder& recorder) const {
  for (const Recorded& span : recorded_) {
    recorder.AddSpan("svbench", LayerName(span.layer), /*pid=*/1, /*tid=*/0,
                     static_cast<double>(span.start_ns) / 1e3,
                     static_cast<double>(span.dur_ns) / 1e3);
  }
}

void TracedCollector::Collect(svagc::rt::Jvm& jvm) {
  spans_.Open();
  inner_->Collect(jvm);
  spans_.Close(Layer::kCollect);
}

svagc::rt::vaddr_t TracedFrontEnd::AllocateObject(svagc::rt::Jvm& jvm,
                                                  std::uint64_t bytes,
                                                  unsigned logical_thread) {
  ++calls_;
  const std::uint64_t before = inner_.log().collections;
  spans_.Open();
  const svagc::rt::vaddr_t addr =
      inner_.AllocateObject(jvm, bytes, logical_thread);
  spans_.Close(inner_.log().collections != before ? Layer::kGenGc
                                                  : Layer::kAlloc);
  return addr;
}

void TracedMemSink::OnAccess(std::uint64_t vaddr, std::uint32_t size,
                             bool is_write) {
  std::lock_guard<std::mutex> guard(mutex_);
  const SpanLog::Clock::time_point start = SpanLog::Clock::now();
  inner_.OnAccess(vaddr, size, is_write);
  const SpanLog::Clock::time_point end = SpanLog::Clock::now();
  spans_.AddMemsim(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  ++accesses_;
  if (size > 0) {
    lines_ += (vaddr + size - 1) / kLineBytes - vaddr / kLineBytes + 1;
  }
}

}  // namespace svbench
