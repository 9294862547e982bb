// Fig. 15: application throughput of SVAGC at 1.2x minimum heap — the
// end-to-end gain from turning SwapVA on (vs the same collector with pure
// memmove). Paper result: improvements range from 15.2% (CryptoAES) to
// 86.9% (Sparse.large); memory-intensive benchmarks gain more than
// compute-intensive ones.
#include "bench/bench_util.h"

using namespace svagc;
using namespace svagc::workloads;

int main() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  std::printf(
      "== Fig. 15: application throughput of SVAGC (1.2x min heap) ==\n");
  bench::PrintProfileHeader(profile);

  TablePrinter table({"benchmark", "memmove(ops/s)", "SwapVA(ops/s)",
                      "improvement", "GC share (memmove)"});
  for (const std::string& name : bench::SmokeSweep(EvaluationWorkloads())) {
    RunConfig config;
    config.workload = name;
    config.profile = &profile;
    config.iterations = bench::SmokeIterations(0);
    config.collector = CollectorKind::kSvagcNoSwap;
    const RunResult base = RunWorkload(config);
    config.collector = CollectorKind::kSvagc;
    const RunResult swap = RunWorkload(config);
    table.AddRow(
        {base.info.display_name, Format("%.1f", base.throughput_ops),
         Format("%.1f", swap.throughput_ops),
         bench::Pct(100 * (swap.throughput_ops / base.throughput_ops - 1)),
         bench::Pct(100 * base.gc_total_cycles / base.app_cycles)});
  }
  bench::Emit("fig15", table);
  std::printf(
      "\npaper: 15.2%% (CryptoAES) to 86.9%% (Sparse.large); gains track how "
      "much of the run the GC occupies.\n");
  return 0;
}
