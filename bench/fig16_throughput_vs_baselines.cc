// Fig. 16: application throughput of SVAGC vs Shenandoah/ParallelGC at
// (a) 1.2x and (b) 2x minimum heap. Paper result: SVAGC outperforms
// ParallelGC / Shenandoah by 30.95% / 37.27% on average at 1.2x, shrinking
// to 15.26% / 16.79% at 2x (bigger heaps mean fewer full GCs).
#include "bench/bench_util.h"
#include "support/stats.h"

using namespace svagc;
using namespace svagc::workloads;

int main() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  std::printf("== Fig. 16: application throughput vs baselines ==\n");
  bench::PrintProfileHeader(profile);

  for (const double heap_factor : {1.2, 2.0}) {
    std::printf("-- %.1fx minimum heap --\n", heap_factor);
    TablePrinter table({"benchmark", "Shenandoah(ops/s)", "ParallelGC(ops/s)",
                        "SVAGC(ops/s)", "vs PGC", "vs Shen"});
    Summary vs_pgc, vs_shen;
    for (const std::string& name : bench::SmokeSweep(EvaluationWorkloads())) {
      RunConfig config;
      config.workload = name;
      config.profile = &profile;
      config.heap_factor = heap_factor;
      config.iterations = bench::SmokeIterations(0);

      config.collector = CollectorKind::kShenandoah;
      const RunResult shen = RunWorkload(config);
      config.collector = CollectorKind::kParallelGc;
      const RunResult pgc = RunWorkload(config);
      config.collector = CollectorKind::kSvagc;
      const RunResult svagc = RunWorkload(config);

      const double dpgc = 100 * (svagc.throughput_ops / pgc.throughput_ops - 1);
      const double dshen =
          100 * (svagc.throughput_ops / shen.throughput_ops - 1);
      vs_pgc.Add(dpgc);
      vs_shen.Add(dshen);
      table.AddRow({svagc.info.display_name,
                    Format("%.1f", shen.throughput_ops),
                    Format("%.1f", pgc.throughput_ops),
                    Format("%.1f", svagc.throughput_ops), bench::Pct(dpgc),
                    bench::Pct(dshen)});
    }
    bench::Emit(Format("fig16@%.1fx", heap_factor), table);
    std::printf(
        "mean improvement: vs ParallelGC %.2f%%, vs Shenandoah %.2f%%\n",
        vs_pgc.mean(), vs_shen.mean());
    std::printf("paper:            %s\n\n",
                heap_factor < 1.5 ? "30.95% and 37.27% (at 1.2x heap)"
                                  : "15.26% and 16.79% (at 2x heap)");
  }
  return 0;
}
