// Fig. 1: execution-time breakdown of the full-GC phases under the serial
// LISP2 prototype, for FFT.large and Sparse.large (i5-7600 testbed).
// Paper result: compaction accounts for 79.33% (Sparse.large) to 84.76%
// (FFT.large) of total GC time.
#include "bench/bench_util.h"

using namespace svagc;
using namespace svagc::workloads;

int main() {
  const sim::CostProfile& profile = sim::ProfileCorei5_7600();
  std::printf("== Fig. 1: Full GC phase breakdown (serial LISP2) ==\n");
  bench::PrintProfileHeader(profile);

  TablePrinter table({"benchmark", "GCs", "mark%", "forward%", "adjust%",
                      "compact%", "other%", "total(ms)"});
  for (const char* name : {"fft.large", "sparse.large"}) {
    RunConfig config;
    config.workload = name;
    config.collector = CollectorKind::kSerialLisp2;
    config.profile = &profile;
    config.iterations = bench::SmokeIterations(0);  // 0 = workload default
    const RunResult r = RunWorkload(config);
    const rt::GcCycleRecord& sum = r.phase_sum;
    const double total = sum.Total();
    table.AddRow({r.info.display_name,
                  Format("%llu", (unsigned long long)r.gc_count),
                  bench::Pct(100 * sum.mark / total),
                  bench::Pct(100 * sum.forward / total),
                  bench::Pct(100 * sum.adjust / total),
                  bench::Pct(100 * sum.compact / total),
                  bench::Pct(100 * sum.other / total),
                  bench::Ms(total, profile)});
  }
  bench::Emit("fig01", table);
  std::printf(
      "\npaper: compaction dominates — 79.33%% (Sparse.large) to 84.76%% "
      "(FFT.large) of full-GC time.\n");
  return 0;
}
