// Fig. 19 (extension): compaction-plan optimizer ablation. Four
// configurations — optimizer off, run coalescing, coalescing + dense-prefix
// elision, and all three knobs with the adaptive SwapVA threshold — over a
// small-object-heavy heap (bisort), a large-object heap (fft.large), and the
// mixed LRU-cache heap. Expected: coalescing alone cuts compaction modeled
// cycles >= 20% on the small-object shape (runs of adjacent small objects
// become single interior-swappable range moves), while the large-object
// shape is near-neutral (its moves were already SwapVA-sized) and the bench
// regression gate keeps the off-column bit-identical to the pre-optimizer
// pipeline.
#include "bench/bench_util.h"

using namespace svagc;
using namespace svagc::workloads;

namespace {

struct Ablation {
  const char* name;
  gc::PlanOptimizerConfig config;
};

std::vector<Ablation> Ablations() {
  gc::PlanOptimizerConfig coalesce;
  coalesce.coalesce_runs = true;
  gc::PlanOptimizerConfig dense = coalesce;
  dense.dense_prefix = true;
  gc::PlanOptimizerConfig adaptive = dense;
  adaptive.adaptive_threshold = true;
  return {{"off", {}},
          {"coalesce", coalesce},
          {"+dense-prefix", dense},
          {"+adaptive", adaptive}};
}

std::string Count(const CounterSnapshot& counters, const char* name) {
  return Format("%llu",
                (unsigned long long)FindCounter(counters, name).value_or(0));
}

RunResult RunArm(const sim::CostProfile& profile, const char* workload,
                 unsigned iterations,
                 const gc::PlanOptimizerConfig& optimizer) {
  RunConfig config;
  config.workload = workload;
  config.collector = CollectorKind::kSvagc;
  config.profile = &profile;
  config.iterations = iterations;
  config.gc_threads = 8;
  config.plan_optimizer = optimizer;
  return RunWorkload(config);
}

}  // namespace

int main() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  std::printf("== Fig. 19: compaction-plan optimizer ablation ==\n");
  bench::PrintProfileHeader(profile);

  struct Shape {
    const char* name;
    const char* workload;
    unsigned iterations;
  };
  // lrucache's steady-state residency is low, so the 2-iteration smoke
  // default never triggers a collection; give it enough churn for at least
  // one cycle in smoke mode too.
  const std::vector<Shape> shapes = {
      {"small", "bisort", bench::SmokeIterations(20)},
      {"large", "fft.large", bench::SmokeIterations(20)},
      {"mixed", "lrucache", bench::SmokeIterations(20, 10)}};
  double small_reduction = 0;

  for (const auto& [shape, workload, iterations] : shapes) {
    std::printf("\n-- %s heap (%s) --\n", shape, workload);
    TablePrinter table({"optimizer", "compact kcyc", "fwd kcyc", "gc kcyc",
                        "swapva.calls", "swapped MB", "copied MB",
                        "runs coalesced", "thresh pages"});
    double off_compact = 0;
    for (const Ablation& arm : Ablations()) {
      const RunResult r = RunArm(profile, workload, iterations, arm.config);
      if (std::string(arm.name) == "off") off_compact = r.phase_sum.compact;
      if (std::string(shape) == "small" &&
          std::string(arm.name) == "coalesce" && off_compact > 0) {
        small_reduction = 1.0 - r.phase_sum.compact / off_compact;
      }
      table.AddRow(
          {arm.name, Format("%.0f", r.phase_sum.compact / 1e3),
           Format("%.0f", r.phase_sum.forward / 1e3),
           Format("%.0f", r.gc_total_cycles / 1e3),
           Count(r.machine_counters, "swapva.calls"),
           Format("%.2f", static_cast<double>(r.bytes_swapped) / (1 << 20)),
           Format("%.2f", static_cast<double>(r.bytes_copied) / (1 << 20)),
           Count(r.gc_counters, "gc.plan.runs_coalesced"),
           Count(r.gc_counters, "gc.plan.threshold_pages")});
    }
    bench::Emit(Format("fig19.%s", shape), table);
  }

  std::printf(
      "\ntarget: run coalescing cuts compaction modeled cycles >= 20%% on the "
      "small-object-heavy shape (measured %.1f%%); the off row is "
      "bit-identical to the pre-optimizer pipeline (bench-regression gate).\n",
      small_reduction * 100);
  return 0;
}
