// Metrics layer of the telemetry subsystem (DESIGN.md section 8).
//
// A MetricsRegistry is a flat namespace of named counters and histograms.
// One registry hangs off each sim::Machine (kernel-side observability:
// SwapVA calls, IPIs, TLB flushes, PMD-cache hits) and one off each tenant's
// collector (GC-side observability: swapped vs. memmoved bytes, objects
// moved, plan-optimizer runs). A registry counter is the only tally of its
// event: the benches and tests read *these* instead of scraping private
// fields, so every reported number has one source of truth.
//
// Determinism shapes the design: two identical runs must produce
// bit-identical counter values, so only quantities that are pure functions
// of the simulated input are recorded (host-dependent quantities like
// work-stealing steal counts are deliberately NOT exported). Telemetry never
// charges a CycleAccount, so it cannot move a modeled cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/spin_lock.h"

namespace svagc::telemetry {

// Monotonic (Add) or republished-total (Store) unsigned counter. Relaxed
// atomics: GC workers bump counters concurrently and only the final values
// are read, after the phase joins.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  // Republishes a total computed elsewhere (e.g. the per-core TLB tallies
  // at harvest time). A counter with more than one writer must use Add.
  void Store(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }

  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Sample-retaining histogram with interpolated percentiles. Sample counts
// here are small (one per coalesced plan-optimizer run), so retaining
// everything is cheaper than maintaining bucket boundaries and keeps the
// percentiles exact.
class Histogram {
 public:
  void Record(double x);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty

  // p in [0, 100]. Empty histogram -> 0; single sample -> that sample for
  // every p (the edge cases tests/telemetry_test.cc pins down).
  double Percentile(double p) const;

  std::vector<double> Snapshot() const;
  void Reset();

 private:
  mutable SpinLock lock_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0;
};

// Name -> instrument map. Instruments are created on first use and never
// move afterwards (node-stable map + unique_ptr), so hot paths may cache
// the returned reference across calls.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  // 0 / nullptr when the instrument was never created.
  std::uint64_t CounterValue(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  // Counters in name order — the deterministic export the benches print and
  // the determinism tests compare across runs.
  std::vector<std::pair<std::string, std::uint64_t>> SnapshotCounters() const;

  void Reset();

 private:
  mutable SpinLock lock_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace svagc::telemetry
