// Fig. 6: aggregated vs separated SwapVA calls (i5-7600 testbed).
// K objects of N pages each are swapped either with K individual syscalls
// (Fig. 5a) or one vectored syscall (Fig. 5b). Paper result: aggregation
// amortizes the invocation cost; the benefit shrinks as the per-call page
// count grows.
#include <vector>

#include "bench/bench_util.h"
#include "runtime/heap.h"

using namespace svagc;

int main() {
  const sim::CostProfile& profile = sim::ProfileCorei5_7600();
  std::printf("== Fig. 6: aggregated vs separated SwapVA calls ==\n");
  bench::PrintProfileHeader(profile);

  constexpr unsigned kObjects = 32;
  TablePrinter table({"pages/object", "separated(kcyc)", "aggregated(kcyc)",
                      "saving"});
  for (const std::uint64_t pages :
       bench::SmokeSweep<std::uint64_t>({1, 2, 4, 8, 16, 32, 64, 128})) {
    sim::Machine machine(1, profile);
    sim::Kernel kernel(machine);
    sim::PhysicalMemory phys((2 * kObjects * pages + 64) << sim::kPageShift);
    sim::AddressSpace as(machine, phys);
    const sim::vaddr_t base = 1ULL << 32;
    const std::uint64_t span = pages << sim::kPageShift;
    as.MapRange(base, 2 * kObjects * span);

    sim::SwapVaOptions opts;  // defaults: PMD caching on, global flushes
    std::vector<sim::SwapRequest> requests;
    for (unsigned i = 0; i < kObjects; ++i) {
      requests.push_back(
          {base + 2 * i * span, base + (2 * i + 1) * span, pages});
    }

    sim::CpuContext separated(machine, 0);
    for (const auto& req : requests) {
      kernel.SysSwapVa(as, separated, req.a, req.b, req.pages, opts);
    }
    sim::CpuContext aggregated(machine, 0);
    kernel.SysSwapVaVec(as, aggregated, requests, opts);

    table.AddRow({Format("%llu", (unsigned long long)pages),
                  Format("%.1f", separated.account.total() / 1e3),
                  Format("%.1f", aggregated.account.total() / 1e3),
                  bench::Pct(100 * (1 - aggregated.account.total() /
                                            separated.account.total()))});
  }
  bench::Emit("fig06", table);
  std::printf(
      "\npaper: one aggregated call replaces %u syscalls + flushes; the "
      "relative saving falls as pages/object rises.\n",
      kObjects);
  return 0;
}
