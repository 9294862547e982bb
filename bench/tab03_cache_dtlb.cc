// Table III: cache and DTLB miss rates with memmove vs SwapVA at 1.2x (2x)
// minimum heap, measured by the trace-driven memory-hierarchy simulator
// (the paper samples the same counters with `perf`). Paper result: SwapVA
// pollutes the caches and the DTLB less than memmove in almost every
// benchmark (geomean cache misses 69.3% -> 65.7%; DTLB 1.28% -> 0.52% at
// 1.2x heap).
#include "bench/bench_util.h"
#include "memsim/hierarchy.h"
#include "support/stats.h"

using namespace svagc;
using namespace svagc::workloads;

namespace {

struct MissRates {
  double cache;
  double dtlb;
};

MissRates Measure(const std::string& workload, CollectorKind collector,
                  double heap_factor) {
  // Heap sizes are scaled ~1000x below the paper's; use the matching scaled
  // hierarchy so heap >> LLC and heap >> TLB reach, as on the testbed.
  memsim::MemoryHierarchy hierarchy(
      memsim::HierarchyConfig::ScaledForSmallHeaps());
  RunConfig config;
  config.workload = workload;
  config.collector = collector;
  config.heap_factor = heap_factor;
  config.iterations = bench::SmokeIterations(0);
  // One trace-driven hierarchy models one serialized access stream. With
  // several GC workers feeding it, the probe order (and so every miss
  // count) would follow host thread interleaving; one worker keeps the
  // table deterministic.
  config.gc_threads = 1;
  config.trace = &hierarchy;
  (void)RunWorkload(config);
  return {hierarchy.LlcMissRatePercent(), hierarchy.DtlbMissRatePercent()};
}

}  // namespace

int main() {
  std::printf(
      "== Table III: cache & DTLB miss rates, memmove vs SwapVA, at 1.2x "
      "(2x) min heap ==\n");
  TablePrinter table({"Benchmark", "cache% memmove", "cache% SwapVA",
                      "dtlb% memmove", "dtlb% SwapVA"});
  GeoMean gm_cache_move, gm_cache_swap, gm_dtlb_move, gm_dtlb_swap;
  double mins[4] = {1e9, 1e9, 1e9, 1e9};
  double maxs[4] = {0, 0, 0, 0};
  for (const std::string& name : bench::SmokeSweep(EvaluationWorkloads())) {
    const MissRates move12 = Measure(name, CollectorKind::kSvagcNoSwap, 1.2);
    const MissRates move20 = Measure(name, CollectorKind::kSvagcNoSwap, 2.0);
    const MissRates swap12 = Measure(name, CollectorKind::kSvagc, 1.2);
    const MissRates swap20 = Measure(name, CollectorKind::kSvagc, 2.0);
    const double cells[4] = {move12.cache, swap12.cache, move12.dtlb,
                             swap12.dtlb};
    for (int i = 0; i < 4; ++i) {
      mins[i] = std::min(mins[i], cells[i]);
      maxs[i] = std::max(maxs[i], cells[i]);
    }
    gm_cache_move.Add(std::max(0.01, move12.cache));
    gm_cache_swap.Add(std::max(0.01, swap12.cache));
    gm_dtlb_move.Add(std::max(0.001, move12.dtlb));
    gm_dtlb_swap.Add(std::max(0.001, swap12.dtlb));
    const auto workload = MakeWorkload(name);
    table.AddRow({workload->info().display_name,
                  Format("%.2f(%.2f)", move12.cache, move20.cache),
                  Format("%.2f(%.2f)", swap12.cache, swap20.cache),
                  Format("%.3f(%.3f)", move12.dtlb, move20.dtlb),
                  Format("%.3f(%.3f)", swap12.dtlb, swap20.dtlb)});
  }
  table.AddRow({"min", Format("%.2f", mins[0]), Format("%.2f", mins[1]),
                Format("%.3f", mins[2]), Format("%.3f", mins[3])});
  table.AddRow({"max", Format("%.2f", maxs[0]), Format("%.2f", maxs[1]),
                Format("%.3f", maxs[2]), Format("%.3f", maxs[3])});
  table.AddRow({"geomean", Format("%.2f", gm_cache_move.Value()),
                Format("%.2f", gm_cache_swap.Value()),
                Format("%.3f", gm_dtlb_move.Value()),
                Format("%.3f", gm_dtlb_swap.Value())});
  bench::Emit("tab03", table);
  std::printf(
      "\npaper (1.2x heap): geomean cache misses 69.32%% (memmove) vs "
      "65.71%% (SwapVA); DTLB 1.28%% vs 0.52%%.\n");
  return 0;
}
