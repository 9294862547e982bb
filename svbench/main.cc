// Two-clock benchmark: replays one workload several times in one
// process, checks every replay's output, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate traced run (--trace 1).
// The last line of stdout is one JSON object; see README.md.
//
//   svbench --workload large-swap --seed 1 --seconds 24 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "metrics.h"
#include "replay.h"
#include "spans.h"
#include "support/check.h"
#include "telemetry/trace_recorder.h"

namespace {

namespace sv = svagc;
using svbench::Arm;
using svbench::CyclesToMs;
using svbench::Layer;
using svbench::Metric;
using svbench::ModelMetrics;
using svbench::Pct;
using svbench::Replay;
using svbench::ReplayOptions;
using svbench::SpanLog;
using svbench::WorkloadSpec;

using Clock = std::chrono::steady_clock;

// A pause percentile is reported only when at least this many pauses lie
// beyond it.
constexpr std::size_t kTailSamples = 10;

struct Args {
  std::string workload;
  std::uint32_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
  bool corrupt_reference = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr, "svbench: %s\n", error);
  std::fprintf(stderr,
               "usage: svbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt-reference] "
               "[--trace-out FILE]\nworkloads:");
  for (const WorkloadSpec& spec : svbench::Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseUnsigned(const char* text, std::uint64_t max, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
      value > max) {
    return false;
  }
  *out = value;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value(), UINT32_MAX, &number)) {
        Usage("--seed must be an integer in [0, 2^32)");
      }
      args.seed = static_cast<std::uint32_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value(), 3600, &number) || number == 0) {
        Usage("--seconds must be an integer in [1, 3600]");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value(), 1, &number)) Usage("--trace must be 0 or 1");
      args.trace = static_cast<int>(number);
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Usage(("unknown argument " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.seconds <= 0) Usage("--seconds is required");
  if (args.trace < 0) Usage("--trace is required");
  return args;
}

// Linear-interpolated percentile, the rule LatencyRecorder uses.
double Percentile(std::vector<double> values, double p) {
  SVAGC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

// FNV-1a over the exact bits of every modeled value of a replay.
std::uint64_t Fingerprint(const std::vector<Metric>& model,
                          const std::vector<double>& pauses) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto fold = [&hash](double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (unsigned i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Metric& metric : model) fold(metric.value);
  for (const double pause : pauses) fold(pause);
  return hash;
}

// Per-metric median over replays of metric lists with the same layout.
std::vector<Metric> MedianMetrics(
    const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>& run : runs) values.push_back(run[i].value);
    out[i].value = Median(values);
  }
  return out;
}

// Orders per-layer metrics by module, top of the stack first.
int LayerRank(const std::string& name) {
  static const char* const kLayers[] = {"workloads.", "runtime.",  "gc.",
                                        "core.",      "simkernel.", "memsim.",
                                        "fleet."};
  int rank = 0;
  for (const char* layer : kLayers) {
    if (name.rfind(layer, 0) == 0) return rank;
    ++rank;
  }
  return rank;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        iterations_(args.tiny ? spec.tiny_iterations : spec.iterations),
        fleet_(spec.fleet_tenants > 0) {}

  int Run();

 private:
  Replay Measure(SpanLog* spans, bool fleet_pauses = false);
  int RunEndToEnd();
  int RunTraced();

  double PauseMs(double p) const {
    std::vector<double> ms;
    for (const double pause : pauses_) ms.push_back(CyclesToMs(pause));
    return Percentile(ms, p);
  }
  bool HasTail() const { return pauses_.size() >= 20 * kTailSamples; }

  void PrintResult(bool correct, const std::vector<Metric>& metrics) const;

  const WorkloadSpec& spec_;
  const Args& args_;
  const unsigned iterations_;
  const bool fleet_;
  std::vector<std::uint64_t> reference_digests_;
  unsigned attempted_ = 0;
  unsigned failed_ = 0;
  std::vector<std::vector<Metric>> model_runs_;  // one per checked replay
  std::set<std::uint64_t> fingerprints_;  // every checked replay
  std::set<std::uint64_t> untraced_prints_;
  std::set<std::uint64_t> traced_prints_;
  std::vector<double> pauses_;  // modeled cycles, one per GC cycle
};

// Runs one replay of the workload and checks its output: the heap verifies
// and its reachable-graph digest (for the fleet, every tenant's heap digest)
// matches the memmove reference of the same seed.
Replay Bench::Measure(SpanLog* spans, bool fleet_pauses) {
  ReplayOptions options;
  options.iterations = iterations_;
  options.spans = spans;
  options.fleet_pauses = fleet_pauses;
  Replay replay = svbench::RunReplay(spec_, args_.seed, options);
  ++attempted_;
  if (!replay.heap_ok || replay.digests != reference_digests_) {
    ++failed_;
    std::printf("  replay %u failed its output check: %s\n", attempted_,
                replay.heap_ok ? "digest differs from the memmove reference"
                               : replay.heap_error.c_str());
  }
  model_runs_.push_back(ModelMetrics(replay));
  // Fleet pauses come from one extra replay only, so they stay out of the
  // fleet's fingerprints.
  const std::uint64_t fingerprint = Fingerprint(
      model_runs_.back(), fleet_ ? std::vector<double>{} : replay.pause_cycles);
  fingerprints_.insert(fingerprint);
  (spans != nullptr ? traced_prints_ : untraced_prints_).insert(fingerprint);
  if (!replay.pause_cycles.empty()) pauses_ = replay.pause_cycles;
  return replay;
}

void Bench::PrintResult(bool correct,
                        const std::vector<Metric>& metrics) const {
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %16.8g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Bench::Run() {
  std::printf("svbench workload=%s seed=%u trace=%d iterations=%u\n",
              spec_.name.c_str(), args_.seed, args_.trace, iterations_);
  // The oracle: the same seed replayed with memmove compaction.
  ReplayOptions reference;
  reference.arm = Arm::kReference;
  reference.iterations = iterations_;
  const Replay ref = svbench::RunReplay(spec_, args_.seed, reference);
  if (!ref.heap_ok) {
    std::fprintf(stderr, "svbench: reference replay failed: %s\n",
                 ref.heap_error.c_str());
    return 1;
  }
  reference_digests_ = ref.digests;
  if (args_.corrupt_reference) {
    for (std::uint64_t& digest : reference_digests_) digest ^= 1;
  }
  // Warm-up: checked, never timed. RunFleet exposes per-cycle pauses only as
  // trace spans, so the fleet's warm-up also records those.
  Measure(nullptr, /*fleet_pauses=*/fleet_);
  return args_.trace == 0 ? RunEndToEnd() : RunTraced();
}

int Bench::RunEndToEnd() {
  std::vector<double> setup, ops_per_cpu_s;
  const Clock::time_point start = Clock::now();
  const std::size_t min_replays = args_.tiny ? 1 : 3;
  while (setup.size() < min_replays ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             args_.seconds) {
    const Replay replay = Measure(nullptr);
    setup.push_back(replay.setup_cpu_s);
    ops_per_cpu_s.push_back(static_cast<double>(replay.ops) /
                            replay.loop_cpu_s);
  }
  // Modeled values are medians over every checked replay; they differ
  // between replays only on the fleet (see README.md, known defect).
  const std::vector<Metric> model = MedianMetrics(model_runs_);
  std::printf("  %zu timed replays, %u checked, %u failed; gc.pauses=%zu, "
              "model.distinct_results=%zu\n",
              setup.size(), attempted_, failed_, pauses_.size(),
              fingerprints_.size());
  PrintResult(failed_ == 0,
              {
                  {"host_ops_per_cpu_s", "ops/cpu_s", Median(ops_per_cpu_s)},
                  {"setup_s", "s", Median(setup)},
                  {"peak_rss_mb", "MiB", PeakRssMiB()},
                  model[0],  // model_ops_per_s
                  model[1],  // model_gc_ms
                  {"model_pause_p50_ms", "model_ms", PauseMs(50)},
              });
  return 0;
}

int Bench::RunTraced() {
  // Untraced and traced replays alternate, so host drift hits both alike.
  std::vector<double> plain_cpu, plain_ops_per_wall_s, traced_cpu,
      alloc_calls, accesses, lines;
  std::vector<std::vector<double>> self_ms(svbench::kNumLayers);
  bool self_within_wall = true;
  sv::telemetry::TraceRecorder timeline;
  const Clock::time_point start = Clock::now();
  const std::size_t min_pairs = args_.tiny ? 1 : 2;
  while (traced_cpu.size() < min_pairs ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             args_.seconds) {
    const Replay plain = Measure(nullptr);
    plain_cpu.push_back(plain.setup_cpu_s + plain.loop_cpu_s);
    plain_ops_per_wall_s.push_back(static_cast<double>(plain.ops) /
                                   plain.loop_wall_s);

    SpanLog spans;
    const Replay traced = Measure(&spans);
    traced_cpu.push_back(traced.setup_cpu_s + traced.loop_cpu_s);
    for (std::size_t i = 0; i < svbench::kNumLayers; ++i) {
      self_ms[i].push_back(spans.self_ms(static_cast<Layer>(i)));
    }
    alloc_calls.push_back(static_cast<double>(traced.alloc_calls));
    accesses.push_back(static_cast<double>(traced.memsim_accesses));
    lines.push_back(static_cast<double>(traced.memsim_lines));
    std::printf("  traced replay: wall_ms=%.6f self_sum_ms=%.6f\n",
                traced.wall_s * 1e3, spans.self_sum_ms());
    if (spans.self_sum_ms() > traced.wall_s * 1e3) self_within_wall = false;
    timeline.Clear();
    spans.Export(timeline);
  }
  if (!args_.trace_out.empty() && !timeline.WriteFile(args_.trace_out)) {
    std::fprintf(stderr, "svbench: cannot write %s\n",
                 args_.trace_out.c_str());
    return 1;
  }

  auto self = [&self_ms](Layer layer) {
    return Median(self_ms[static_cast<std::size_t>(layer)]);
  };
  std::vector<Metric> metrics = {
      {"workloads.iterate_self_ms", "ms", self(Layer::kIterate)},
      // Wall-clock throughput of the untraced replays. Unlike the gated
      // process-CPU throughput, it sees blocking and parallel speedups.
      {"workloads.ops_per_wall_s", "ops/s", Median(plain_ops_per_wall_s)},
      {"workloads.setup_ms", "ms", self(Layer::kSetup)},
      {"runtime.alloc_self_ms", "ms", self(Layer::kAlloc)},
      {"runtime.alloc_calls", "count", Median(alloc_calls)},
      {"gc.collect_self_ms", "ms", self(Layer::kCollect)},
      {"core.gen_gc_self_ms", "ms", self(Layer::kGenGc)},
      {"memsim.on_access_ms", "ms", self(Layer::kOnAccess)},
      {"memsim.accesses", "count", Median(accesses)},
      {"memsim.lines", "count", Median(lines)},
      {"fleet.run_ms", "ms", self(Layer::kFleetRun)},
      {"gc.pauses", "count", static_cast<double>(pauses_.size())},
      {"gc.pause_p95_ms", "model_ms", HasTail() ? PauseMs(95) : 0.0},
  };
  for (const Metric& metric : MedianMetrics(model_runs_)) {
    if (metric.name.find('.') != std::string::npos) metrics.push_back(metric);
  }
  metrics.push_back(
      {"trace.overhead_pct", "%",
       100.0 * (Median(traced_cpu) / Median(plain_cpu) - 1.0)});
  metrics.push_back({"model.distinct_results", "count",
                     static_cast<double>(fingerprints_.size())});
  metrics.push_back({"failed_pct", "%", Pct(failed_, attempted_)});
  std::stable_sort(metrics.begin(), metrics.end(),
                   [](const Metric& a, const Metric& b) {
                     return LayerRank(a.name) < LayerRank(b.name);
                   });

  // Single-JVM replays are deterministic, so the wrapped seams must model
  // exactly the same run. The fleet's results drift with host thread
  // interleaving (a known defect, see README.md); there it is only reported.
  const bool same_model = untraced_prints_ == traced_prints_;
  std::printf("  %zu untraced + %zu traced replays, %u checked, %u failed; "
              "self times within wall: %s; traced fingerprint %s\n",
              plain_cpu.size(), traced_cpu.size(), attempted_, failed_,
              self_within_wall ? "yes" : "NO",
              same_model ? "equals untraced"
              : fleet_   ? "differs from untraced (fleet drift)"
                         : "DIFFERS from untraced");
  PrintResult(failed_ == 0 && self_within_wall && (same_model || fleet_),
              metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = svbench::FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  Bench bench(*spec, args);
  return bench.Run();
}
