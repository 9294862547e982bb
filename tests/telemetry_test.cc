// Telemetry subsystem tests (DESIGN.md section 8): histogram percentile
// edge cases, registry semantics, the golden Perfetto trace_event JSON
// bytes, span nesting/balance invariants over real GC runs, bit-exact
// agreement between trace-derived phase totals and the harvested fig01
// numbers, and counter/trace determinism across identical runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/svagc_collector.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_json.h"
#include "telemetry/trace_recorder.h"
#include "tests/test_util.h"
#include "workloads/runner.h"

namespace svagc {
namespace {

using telemetry::MetricsRegistry;
using telemetry::TraceEvent;
using telemetry::TraceRecorder;

TEST(Histogram, PercentileEdgeCases) {
  telemetry::Histogram h;
  // Empty: every statistic is 0.
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Percentile(100), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  // Single sample: every percentile is that sample.
  h.Record(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(0), 42.0);
  EXPECT_EQ(h.Percentile(50), 42.0);
  EXPECT_EQ(h.Percentile(99), 42.0);
  EXPECT_EQ(h.Percentile(100), 42.0);

  // Two samples: linear interpolation between them.
  h.Record(10.0);  // out of order on purpose — Percentile must sort
  EXPECT_EQ(h.Percentile(0), 10.0);
  EXPECT_EQ(h.Percentile(50), 26.0);  // midpoint of {10, 42}
  EXPECT_EQ(h.Percentile(100), 42.0);
  EXPECT_EQ(h.min(), 10.0);
  EXPECT_EQ(h.max(), 42.0);
  EXPECT_EQ(h.sum(), 52.0);

  // Five samples 1..5: exact ranks land on samples, p99 interpolates
  // inside the top gap.
  h.Reset();
  for (double x : {5.0, 3.0, 1.0, 4.0, 2.0}) h.Record(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.Percentile(0), 1.0);
  EXPECT_EQ(h.Percentile(25), 2.0);
  EXPECT_EQ(h.Percentile(50), 3.0);
  EXPECT_EQ(h.Percentile(75), 4.0);
  EXPECT_EQ(h.Percentile(100), 5.0);
  EXPECT_NEAR(h.Percentile(99), 4.96, 1e-12);
}

TEST(Metrics, RegistrySemantics) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.CounterValue("never.created"), 0u);
  EXPECT_EQ(reg.FindHistogram("never.created"), nullptr);

  telemetry::Counter& c = reg.counter("z.last");
  c.Add();
  c.Add(4);
  EXPECT_EQ(c.value(), 5u);
  c.Store(11);
  EXPECT_EQ(reg.CounterValue("z.last"), 11u);

  // Instruments are node-stable: creating more must not move the first.
  for (int i = 0; i < 64; ++i) {
    reg.counter("a.bulk" + std::to_string(i)).Add();
  }
  EXPECT_EQ(&reg.counter("z.last"), &c);
  EXPECT_EQ(c.value(), 11u);

  // Snapshot is name-ordered, so two identical runs compare byte-for-byte.
  const auto snapshot = reg.SnapshotCounters();
  ASSERT_EQ(snapshot.size(), 65u);
  for (std::size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].first, snapshot[i].first);
  }
  EXPECT_EQ(snapshot.back().first, "z.last");
  EXPECT_EQ(snapshot.back().second, 11u);

  reg.Reset();
  EXPECT_EQ(reg.CounterValue("z.last"), 0u);
  EXPECT_EQ(&reg.counter("z.last"), &c);  // Reset clears values, not nodes
}

std::vector<TraceEvent> GoldenEvents() {
  return {
      {"gc", "cycle", 1, 0, 0.0, 1.5},
      // Name with every escape class the emitter handles, and ts/dur that
      // need all 17 significant digits to round-trip.
      {"gc.task", "region/\"r\\1\"\n\t", 2, 3, 0.10000000000000001,
       1.0 / 3.0},
  };
}

// The exact bytes TraceToJson must emit for GoldenEvents() — the golden
// file, inlined. If the emitter format drifts, this fails before Perfetto
// compatibility silently breaks.
const char kGoldenJson[] =
    "{\"displayTimeUnit\": \"ms\", \"otherData\": "
    "{\"tool\": \"svagc-telemetry\", \"time_unit\": \"modeled-cycles\"}, "
    "\"traceEvents\": ["
    "\n{\"name\": \"cycle\", \"cat\": \"gc\", \"ph\": \"X\", \"pid\": 1, "
    "\"tid\": 0, \"ts\": 0, \"dur\": 1.5}, "
    "\n{\"name\": \"region/\\\"r\\\\1\\\"\\n\\t\", \"cat\": \"gc.task\", "
    "\"ph\": \"X\", \"pid\": 2, \"tid\": 3, "
    "\"ts\": 0.10000000000000001, \"dur\": 0.33333333333333331}"
    "]}\n";

TEST(TraceJson, GoldenFileRoundTrip) {
  EXPECT_EQ(telemetry::TraceToJson(GoldenEvents()), kGoldenJson);
}

TEST(TraceRecorder, WriteFileRoundTrips) {
  TraceRecorder recorder;
  recorder.AddSpan("gc", "cycle", 7, 0, 0.0, 100.0);
  recorder.AddSpan("gc.phase", "mark", 7, 0, 0.0, 60.0);
  EXPECT_EQ(recorder.size(), 2u);

  const std::string path =
      ::testing::TempDir() + "/svagc_trace_roundtrip.json";
  ASSERT_TRUE(recorder.WriteFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), recorder.ToJson());
  std::remove(path.c_str());

  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
}

// ---------------------------------------------------------------------------
// Trace structure over a real GC run.

workloads::RunConfig TracedConfig() {
  workloads::RunConfig config;
  config.workload = "lrucache";
  config.collector = workloads::CollectorKind::kSvagc;
  config.iterations = 25;
  config.gc_threads = 4;
  config.machine_cores = 8;
  return config;
}

struct PidTrace {
  std::vector<TraceEvent> cycles;  // cat "gc", tid 0
  std::vector<TraceEvent> phases;  // cat "gc.phase", tid 0
  std::vector<TraceEvent> tasks;   // cat "gc.task", tid 1+worker
};

std::map<std::uint32_t, PidTrace> GroupByPid(
    const std::vector<TraceEvent>& events) {
  std::map<std::uint32_t, PidTrace> by_pid;
  for (const TraceEvent& e : events) {
    PidTrace& t = by_pid[e.pid];
    if (e.cat == "gc") {
      t.cycles.push_back(e);
    } else if (e.cat == "gc.phase") {
      t.phases.push_back(e);
    } else if (e.cat == "gc.task") {
      t.tasks.push_back(e);
    } else {
      ADD_FAILURE() << "unexpected category " << e.cat;
    }
  }
  return by_pid;
}

TEST(TraceStructure, SpansNestAndBalance) {
  TraceRecorder recorder;
  workloads::RunConfig config = TracedConfig();
  config.trace_recorder = &recorder;
  const workloads::RunResult result = workloads::RunWorkload(config);
  ASSERT_GT(result.gc_count, 0u);

  const auto by_pid = GroupByPid(recorder.Snapshot());
  ASSERT_EQ(by_pid.size(), 1u);  // single collector -> single trace process
  const PidTrace& trace = by_pid.begin()->second;

  // Balance: one cycle span per collection, five phase spans per cycle.
  ASSERT_EQ(trace.cycles.size(), result.gc_count);
  ASSERT_EQ(trace.phases.size(), 5 * trace.cycles.size());

  static const char* const kPhaseNames[5] = {"mark", "forward", "adjust",
                                             "compact", "other"};
  double clock = 0.0;
  for (std::size_t c = 0; c < trace.cycles.size(); ++c) {
    const TraceEvent& cycle = trace.cycles[c];
    EXPECT_EQ(cycle.name, "cycle");
    EXPECT_EQ(cycle.tid, 0u);
    // Cycles tile the collector's modeled timeline back-to-back.
    EXPECT_EQ(cycle.ts, clock) << "cycle " << c;
    clock += cycle.dur;

    // The five phases tile the cycle in canonical order and their durations
    // sum bit-exactly to the cycle duration (same left-to-right addition as
    // GcCycleRecord::Total()).
    double t = cycle.ts;
    double dur_sum = 0.0;
    for (std::size_t p = 0; p < 5; ++p) {
      const TraceEvent& phase = trace.phases[5 * c + p];
      EXPECT_EQ(phase.name, kPhaseNames[p]);
      EXPECT_EQ(phase.tid, 0u);
      EXPECT_EQ(phase.ts, t) << "cycle " << c << " phase " << phase.name;
      t += phase.dur;
      dur_sum += phase.dur;
      EXPECT_GE(phase.dur, 0.0);
    }
    EXPECT_EQ(dur_sum, cycle.dur) << "cycle " << c;
  }

  // Every worker task span nests inside exactly one cycle of its pid and
  // never starts before its cycle. The end bound gets one ulp-scale grace:
  // task durations are account deltas summed across sub-phases, which can
  // round differently from the phase critical-path sum.
  ASSERT_FALSE(trace.tasks.empty());
  for (const TraceEvent& task : trace.tasks) {
    EXPECT_GE(task.tid, 1u);
    EXPECT_GE(task.dur, 0.0);
    bool nested = false;
    for (const TraceEvent& cycle : trace.cycles) {
      const double slack = 1e-9 * (1.0 + cycle.dur);
      if (task.ts >= cycle.ts &&
          task.ts + task.dur <= cycle.ts + cycle.dur + slack) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << task.name << " at ts " << task.ts
                        << " is not nested in any cycle";
  }
}

// Acceptance check: per-phase totals derived from the trace equal the
// harvested fig01 phase breakdown bit-identically.
TEST(TraceStructure, PhaseTotalsMatchHarvestBitExact) {
  TraceRecorder recorder;
  workloads::RunConfig config = TracedConfig();
  config.trace_recorder = &recorder;
  const workloads::RunResult result = workloads::RunWorkload(config);
  ASSERT_GT(result.gc_count, 0u);

  double mark = 0, forward = 0, adjust = 0, compact = 0, other = 0, total = 0;
  for (const TraceEvent& e : recorder.Snapshot()) {
    if (e.cat == "gc") total += e.dur;
    if (e.cat != "gc.phase") continue;
    if (e.name == "mark") mark += e.dur;
    if (e.name == "forward") forward += e.dur;
    if (e.name == "adjust") adjust += e.dur;
    if (e.name == "compact") compact += e.dur;
    if (e.name == "other") other += e.dur;
  }
  EXPECT_EQ(mark, result.phase_sum.mark);
  EXPECT_EQ(forward, result.phase_sum.forward);
  EXPECT_EQ(adjust, result.phase_sum.adjust);
  EXPECT_EQ(compact, result.phase_sum.compact);
  EXPECT_EQ(other, result.phase_sum.other);
  // gc_total_cycles comes from the pause recorder, which books each pause
  // as whole cycles — so it trails the exact span sum by < 1 cycle/pause.
  EXPECT_LE(result.gc_total_cycles, total);
  EXPECT_LT(total - result.gc_total_cycles,
            static_cast<double>(result.gc_count));
}

// Plan-optimizer counters: present (and meaningful) exactly when the
// optimizer runs, absent otherwise. All of them derive from the
// deterministic plan rewrite, so they are also covered by the determinism
// test below through the full-counter snapshot comparison.
TEST(TelemetryPlanOptimizer, CountersPublishedOnlyWhenOptimizerEnabled) {
  workloads::RunConfig config = TracedConfig();
  config.workload = "bisort";  // small-object-heavy: runs will coalesce
  const workloads::RunResult off = workloads::RunWorkload(config);
  ASSERT_GT(off.gc_count, 0u);
  for (const auto& [key, value] : off.gc_counters) {
    EXPECT_EQ(key.rfind("gc.plan.", 0), std::string::npos)
        << key << " published with the optimizer off";
  }

  config.plan_optimizer.coalesce_runs = true;
  config.plan_optimizer.dense_prefix = true;
  config.plan_optimizer.adaptive_threshold = true;
  const workloads::RunResult on = workloads::RunWorkload(config);
  ASSERT_GT(on.gc_count, 0u);
  auto find = [&](const char* name) {
    return workloads::FindCounter(on.gc_counters, name);
  };
  EXPECT_GT(find("gc.plan.runs_coalesced"), 0u);
  // Republished per cycle, not accumulated: the last cycle's threshold.
  const std::optional<std::uint64_t> threshold =
      find("gc.plan.threshold_pages");
  EXPECT_GE(threshold, 1u);
  EXPECT_LE(threshold, 64u);
  // Present (may legitimately be 0).
  EXPECT_TRUE(find("gc.plan.dense_prefix_bytes").has_value());
}

// The run-length histogram holds one sample per coalesced move and mirrors
// the counter: sum(samples) is the coalesced-object total, count matches
// gc.plan.runs_coalesced.
TEST(TelemetryPlanOptimizer, RunLengthHistogramMatchesCounter) {
  svagc::testing::SimBundle sim(4, 256ULL << 20);
  rt::JvmConfig jvm_config;
  jvm_config.heap.capacity = 8 << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, jvm_config);
  auto owned = std::make_unique<core::SvagcCollector>(sim.machine, 2, 0);
  core::SvagcCollector* svagc = owned.get();
  gc::PlanOptimizerConfig optimizer;
  optimizer.coalesce_runs = true;
  svagc->set_plan_optimizer(optimizer);
  jvm.set_collector(std::move(owned));

  // Garbage below a span of adjacent small survivors: one coalesced run.
  for (int i = 0; i < 20; ++i) jvm.New(1, 0, sim::kPageSize);  // dies
  const auto table = jvm.roots().Add(jvm.New(2, 128, 0));
  for (unsigned i = 0; i < 128; ++i) {
    jvm.View(jvm.roots().Get(table)).set_ref(i, jvm.New(1, 0, 256));
  }
  jvm.collector().Collect(jvm);

  const std::uint64_t runs =
      svagc->metrics().CounterValue("gc.plan.runs_coalesced");
  ASSERT_GT(runs, 0u);
  const telemetry::Histogram* hist =
      svagc->metrics().FindHistogram("gc.plan.objects_per_run");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), runs);
  // One sample per coalesced move; each covers at least two objects, and
  // their sum is the coalesced-object total from the plan stats.
  double total = 0;
  for (const double sample : hist->Snapshot()) {
    EXPECT_GE(sample, 2.0);
    total += sample;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total),
            svagc->last_plan_stats().objects_in_runs);
}

// Determinism: identical runs produce identical counter snapshots and
// identical traces (modulo the process-wide pid allocation).
TEST(TelemetryDeterminism, CountersAndTracesBitIdenticalAcrossRuns) {
  TraceRecorder rec_a, rec_b;
  workloads::RunConfig config = TracedConfig();
  config.trace_recorder = &rec_a;
  const workloads::RunResult a = workloads::RunWorkload(config);
  config.trace_recorder = &rec_b;
  const workloads::RunResult b = workloads::RunWorkload(config);

  ASSERT_FALSE(a.machine_counters.empty());
  ASSERT_FALSE(a.gc_counters.empty());
  EXPECT_EQ(a.machine_counters, b.machine_counters);
  EXPECT_EQ(a.gc_counters, b.gc_counters);
  EXPECT_EQ(a.bytes_swapped, b.bytes_swapped);
  EXPECT_EQ(a.bytes_copied, b.bytes_copied);
  EXPECT_EQ(a.ipis_sent, b.ipis_sent);

  std::vector<TraceEvent> ea = rec_a.Snapshot();
  std::vector<TraceEvent> eb = rec_b.Snapshot();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ea[i].pid = 0;  // pids come from a process-wide allocator
    eb[i].pid = 0;
    EXPECT_EQ(ea[i], eb[i]) << "event " << i;
  }
}

// The RunResult totals are read from the registries, so the snapshots
// report the same numbers. The GcLog keeps the collection count; the
// registry holds no copy of it.
TEST(TelemetryDeterminism, RegistryCountersMirrorRunResult) {
  const workloads::RunResult result = workloads::RunWorkload(TracedConfig());
  ASSERT_GT(result.gc_count, 0u);
  auto find = [&](const char* name) {
    return workloads::FindCounter(result.gc_counters, name);
  };
  EXPECT_FALSE(find("gc.collections").has_value());
  EXPECT_EQ(find("gc.bytes_copied"), result.bytes_copied);
  EXPECT_EQ(find("gc.bytes_swapped"), result.bytes_swapped);
  EXPECT_EQ(find("gc.swap_calls"), result.swap_calls);
  EXPECT_TRUE(find("gc.objects_swapped") > 0u ||
              find("gc.objects_copied") > 0u);

  auto find_machine = [&](const char* name) {
    return workloads::FindCounter(result.machine_counters, name).value_or(0);
  };
  EXPECT_EQ(find_machine("ipi.sent"), result.ipis_sent);
  EXPECT_GT(find_machine("swapva.calls"), 0u);
  EXPECT_GT(find_machine("tlb.hits") + find_machine("tlb.misses"), 0u);
}

}  // namespace
}  // namespace svagc
