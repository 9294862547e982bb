// One-shot artifact summary: recomputes every headline claim of
// EXPERIMENTS.md live and prints paper-vs-measured side by side. Runs in a
// few seconds; useful as the first thing to execute when evaluating the
// reproduction.
#include "bench/bench_util.h"
#include "support/stats.h"

using namespace svagc;
using namespace svagc::workloads;

namespace {

double GcTotal(const char* workload, CollectorKind kind) {
  RunConfig config;
  config.workload = workload;
  config.collector = kind;
  config.iterations = bench::SmokeIterations(0);
  return RunWorkload(config).gc_total_cycles;
}

std::uint64_t ThresholdCrossover() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  sim::Machine machine(1, profile);
  sim::Kernel kernel(machine);
  sim::PhysicalMemory phys(1024 << sim::kPageShift);
  sim::AddressSpace as(machine, phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, 512 << sim::kPageShift);
  for (std::uint64_t pages = 1; pages <= 64; ++pages) {
    sim::CpuContext copy_ctx(machine, 0), swap_ctx(machine, 0);
    as.CopyBytes(copy_ctx, base, base + (256ULL << sim::kPageShift),
                 pages << sim::kPageShift,
                 sim::AddressSpace::CopyLocality::kHot);
    kernel.SysSwapVa(as, swap_ctx, base, base + (256ULL << sim::kPageShift),
                     pages, sim::SwapVaOptions{});
    if (swap_ctx.account.total() < copy_ctx.account.total()) return pages;
  }
  return 0;
}

}  // namespace

int main() {
  std::printf("SVAGC reproduction — headline summary (see EXPERIMENTS.md)\n\n");
  TablePrinter table({"claim", "paper", "measured"});

  table.AddRow(
      {"memmove/SwapVA break-even (6130)", "~10 pages",
       Format("%llu pages", (unsigned long long)ThresholdCrossover())});

  {
    const double base = GcTotal("sparse.large/4", CollectorKind::kSvagcNoSwap);
    const double swap = GcTotal("sparse.large/4", CollectorKind::kSvagc);
    table.AddRow({"GC-pause reduction, Sparse.large/4", "70.9%",
                  bench::Pct(100 * (1 - swap / base))});
  }
  {
    const double base = GcTotal("sigverify", CollectorKind::kSvagcNoSwap);
    const double swap = GcTotal("sigverify", CollectorKind::kSvagc);
    table.AddRow({"GC-pause reduction, Sigverify", "97%",
                  bench::Pct(100 * (1 - swap / base))});
  }
  {
    GeoMean pgc_ratio, shen_ratio;
    for (const std::string& name : bench::SmokeSweep(EvaluationWorkloads())) {
      RunConfig config;
      config.workload = name;
      config.iterations = bench::SmokeIterations(0);
      config.collector = CollectorKind::kSvagc;
      const double svagc = RunWorkload(config).gc_avg_cycles;
      config.collector = CollectorKind::kParallelGc;
      pgc_ratio.Add(RunWorkload(config).gc_avg_cycles / svagc);
      config.collector = CollectorKind::kShenandoah;
      shen_ratio.Add(RunWorkload(config).gc_avg_cycles / svagc);
    }
    table.AddRow({"avg latency, ParallelGC/SVAGC (1.2x)", "3.82x",
                  Format("%.2fx", pgc_ratio.Value())});
    table.AddRow({"avg latency, Shenandoah/SVAGC (1.2x)", "16.05x",
                  Format("%.2fx", shen_ratio.Value())});
  }
  {
    RunConfig config;
    config.workload = "lrucache";
    config.collector = CollectorKind::kSvagc;
    config.iterations = bench::SmokeIterations(20);
    config.gc_threads = 4;
    auto mean = [](const std::vector<RunResult>& rs, bool gc) {
      double total = 0;
      for (const auto& r : rs) total += gc ? r.gc_total_cycles : r.app_cycles;
      return total / rs.size();
    };
    const auto one = RunMultiJvm(config, 1);
    const auto many = RunMultiJvm(config, 32);
    table.AddRow(
        {"32-JVM app growth, SVAGC (Fig. 14)", "+327.5%",
         bench::Pct(100 * (mean(many, false) / mean(one, false) - 1))});
    table.AddRow({"32-JVM GC growth, SVAGC (Fig. 14)", "+52%",
                  bench::Pct(100 * (mean(many, true) / mean(one, true) - 1))});
  }

  bench::Emit("summary", table);
  std::printf(
      "\nfull sweeps: build/bench/fig01..fig17, tab02, tab03, ablations "
      "(fig17 = forwarding/compaction scheduler scaling).\n");
  return 0;
}
