// Fig. 14: scalability of SVAGC in a single/multi-JVM setting (LRU cache on
// the 32-core configuration). Paper result: at 32 JVMs the application time
// surges by 327.5% while GC time grows only 52% — SwapVA's tiny bandwidth
// footprint keeps GC nearly flat while the mutators fight for DRAM.
#include "bench/bench_util.h"

using namespace svagc;
using namespace svagc::workloads;

int main() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  std::printf("== Fig. 14: SVAGC single/multi-JVM scalability (LRUCache) ==\n");
  bench::PrintProfileHeader(profile);

  TablePrinter table({"JVMs", "app time(ms)", "GC time(ms)", "app growth",
                      "GC growth", "IPIs"});
  double base_app = 0;
  double base_gc = 0;
  for (const unsigned jvms :
       bench::SmokeSweep<unsigned>({1, 2, 4, 8, 16, 32})) {
    RunConfig config;
    config.workload = "lrucache";
    config.collector = CollectorKind::kSvagc;
    config.profile = &profile;
    config.iterations = bench::SmokeIterations(20);
    config.gc_threads = 4;  // paper: GCThreadsCount = 4 per JVM
    const auto results = RunMultiJvm(config, jvms);
    double app = 0;
    double gc = 0;
    std::uint64_t ipis = 0;
    for (const RunResult& r : results) {
      app += r.app_cycles;
      gc += r.gc_total_cycles;
      ipis = r.ipis_sent;  // machine-wide counter, same for every JVM
    }
    app /= jvms;
    gc /= jvms;
    if (jvms == 1) {
      base_app = app;
      base_gc = gc;
    }
    table.AddRow({Format("%u", jvms), bench::Ms(app, profile),
                  bench::Ms(gc, profile),
                  bench::Pct(100 * (app / base_app - 1)),
                  bench::Pct(100 * (gc / base_gc - 1)),
                  Format("%llu", (unsigned long long)ipis)});
  }
  bench::Emit("fig14", table);
  std::printf(
      "\npaper: at 32 JVMs application time +327.5%% while GC time only "
      "+52%%.\n");
  return 0;
}
