// Ablation: physical write traffic — the paper's §VI observation that
// hybrid DRAM/NVM heaps can use SwapVA to cut GC-induced write cycles
// ("replacing costly write operations of NVMs with our zero-copying ones"),
// quantified. Physical bytes written are counted at the frame level: the
// memmove path writes every moved byte; the SwapVA path writes none.
#include "bench/bench_util.h"

using namespace svagc;
using namespace svagc::workloads;

int main() {
  std::printf("== Ablation: GC-induced physical writes (NVM wear proxy) ==\n");
  TablePrinter table({"benchmark", "writes memmove(MiB)", "writes SwapVA(MiB)",
                      "reduction", "write-endurance gain"});
  for (const std::string& name : bench::SmokeSweep<std::string>(
           {"sigverify", "fft.large", "sparse.large", "sor.large.x10",
            "bisort"})) {
    RunConfig config;
    config.workload = name;
    config.iterations = bench::SmokeIterations(0);
    config.collector = CollectorKind::kSvagcNoSwap;
    const RunResult move = RunWorkload(config);
    config.collector = CollectorKind::kSvagc;
    const RunResult swap = RunWorkload(config);
    const double reduction =
        100.0 * (1.0 - static_cast<double>(swap.physical_bytes_written) /
                           static_cast<double>(move.physical_bytes_written));
    table.AddRow(
        {move.info.display_name,
         Format("%.1f", move.physical_bytes_written / 1048576.0),
         Format("%.1f", swap.physical_bytes_written / 1048576.0),
         bench::Pct(reduction),
         Format("%.2fx",
                static_cast<double>(move.physical_bytes_written) /
                    static_cast<double>(swap.physical_bytes_written))});
  }
  bench::Emit("ablation_nvm_wear", table);
  std::printf(
      "\nnote: totals include allocation zeroing (identical on both sides); "
      "the delta is exactly the compaction copy traffic SwapVA removes, "
      "which on an NVM-backed heap is wear-out budget returned to the "
      "application.\n");
  return 0;
}
