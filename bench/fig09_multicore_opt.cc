// Fig. 9: cost of SwapVA in a multi-core system — naive per-call global
// shootdowns vs the two scalability techniques of §IV (one up-front
// process-wide flush, local-only flushes afterwards, pinned caller).
// Setup follows the paper: 100 live swappable objects per cycle.
// Paper result (Eq. 2): IPIs drop from l*c to c; the optimized curve stays
// nearly flat as cores are added.
#include "bench/bench_util.h"

using namespace svagc;

namespace {

struct Outcome {
  double caller_cycles;       // charged to the compacting caller
  double disturbance_cycles;  // stolen from other cores by IPIs
  std::uint64_t ipis;
};

Outcome RunCompaction(const sim::CostProfile& profile, unsigned cores,
                      bool optimized) {
  constexpr unsigned kObjects = 100;  // paper's live swappable object count
  constexpr std::uint64_t kPages = 16;
  sim::Machine machine(cores, profile);
  sim::Kernel kernel(machine);
  sim::PhysicalMemory phys((2 * kObjects * kPages + 64) << sim::kPageShift);
  sim::AddressSpace as(machine, phys);
  const sim::vaddr_t base = 1ULL << 32;
  const std::uint64_t span = kPages << sim::kPageShift;
  as.MapRange(base, 2 * kObjects * span);

  sim::SwapVaOptions opts;
  opts.tlb_policy = optimized ? sim::TlbPolicy::kLocalOnly
                              : sim::TlbPolicy::kGlobalPerCall;
  sim::CpuContext ctx(machine, 0);
  if (optimized) {
    // Algorithm 4: pin + one up-front process-wide shootdown.
    kernel.SysPin(ctx);
    kernel.SysFlushProcessTlbs(as, ctx);
  }
  for (unsigned i = 0; i < kObjects; ++i) {
    kernel.SysSwapVa(as, ctx, base + 2 * i * span, base + (2 * i + 1) * span,
                     kPages, opts);
  }
  if (optimized) kernel.SysUnpin(ctx);
  return Outcome{ctx.account.total(),
                 static_cast<double>(machine.TotalDisturbanceCycles()),
                 machine.metrics().CounterValue("ipi.sent")};
}

}  // namespace

int main() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  std::printf(
      "== Fig. 9: multi-core optimizations to SwapVA (100 objects) ==\n");
  bench::PrintProfileHeader(profile);

  TablePrinter table({"cores", "naive(kcyc)", "naive IPIs", "opt(kcyc)",
                      "opt IPIs", "IPI gain", "speedup"});
  for (const unsigned cores :
       bench::SmokeSweep<unsigned>({1, 2, 4, 8, 16, 32})) {
    const Outcome naive = RunCompaction(profile, cores, false);
    const Outcome opt = RunCompaction(profile, cores, true);
    const double naive_total = naive.caller_cycles + naive.disturbance_cycles;
    const double opt_total = opt.caller_cycles + opt.disturbance_cycles;
    table.AddRow(
        {Format("%u", cores), Format("%.1f", naive_total / 1e3),
         Format("%llu", (unsigned long long)naive.ipis),
         Format("%.1f", opt_total / 1e3),
         Format("%llu", (unsigned long long)opt.ipis),
         opt.ipis == 0 ? "-" : Format("%.0fx", double(naive.ipis) / opt.ipis),
         Format("%.2fx", naive_total / opt_total)});
  }
  bench::Emit("fig09", table);
  std::printf(
      "\npaper (Eq. 2): IPIs fall from l*c to c (gain = l = 100 here); the "
      "optimized cost stays nearly flat with core count.\n");
  return 0;
}
