// Structured span tracing for GC cycles (DESIGN.md section 8).
//
// A TraceRecorder accumulates *complete* spans ("ph": "X" in the Chrome /
// Perfetto trace_event format): GC cycle -> phase -> per-worker task, with
// timestamps and durations in modeled cycles taken from the CycleAccount
// ledgers — never from host clocks — so a trace is a pure function of the
// simulated input and two identical runs emit bit-identical traces.
//
// Track layout per collector:
//   pid   — the collector instance (one Perfetto "process" per collector,
//           so multi-JVM runs separate cleanly)
//   tid 0 — cycle + phase spans (mark / forward / adjust / compact / other)
//   tid 1+w — worker w's task spans inside a phase
//
// Spans are emitted by the *driving* thread after each phase's modeled
// durations are final (never from inside the parallel gang), which keeps
// event order deterministic. The JSON export lives in
// telemetry/trace_json.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/spin_lock.h"

namespace svagc::telemetry {

// One complete ("X") trace span. ts/dur are modeled cycles; Perfetto will
// display them as microseconds, which only rescales the axis.
struct TraceEvent {
  std::string cat;
  std::string name;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  double ts = 0;
  double dur = 0;

  bool operator==(const TraceEvent&) const = default;
};

class TraceRecorder {
 public:
  void AddSpan(std::string cat, std::string name, std::uint32_t pid,
               std::uint32_t tid, double ts, double dur) {
    SpinLockGuard guard(lock_);
    events_.push_back(TraceEvent{std::move(cat), std::move(name), pid, tid,
                                 ts, dur});
  }

  std::size_t size() const {
    SpinLockGuard guard(lock_);
    return events_.size();
  }

  std::vector<TraceEvent> Snapshot() const {
    SpinLockGuard guard(lock_);
    return events_;
  }

  void Clear() {
    SpinLockGuard guard(lock_);
    events_.clear();
  }

  // Serialized trace_event JSON (see trace_json.h for the exact schema).
  std::string ToJson() const;

  // Writes ToJson() to `path`; false on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  mutable SpinLock lock_;
  std::vector<TraceEvent> events_;
};

// SVAGC_TRACE_OUT plumbing: when the environment variable names a path,
// returns a process-wide recorder whose contents
// are written to that path at process exit; nullptr otherwise. The runner
// attaches this to every machine it builds, which is what gives *every*
// bench harness the knob for free.
TraceRecorder* EnvTraceRecorder();

// Forces the env-trace write-out now (also registered via atexit). Returns
// false if a recorder exists but the write failed; true otherwise.
bool FlushEnvTraceRecorder();

}  // namespace svagc::telemetry
