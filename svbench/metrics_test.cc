// Checks how ModelMetrics aggregates a fleet's tenants: a replay of four
// identical tenants must report four times the per-tenant totals of a
// one-tenant replay, and the same machine-wide totals. selftest.py builds and
// runs it:
//
//   cmake --build .bench_build/svbench --target svbench_metrics_test
//   .bench_build/svbench/svbench_metrics_test
#include <cstdio>
#include <map>
#include <string>

#include "metrics.h"

namespace {

std::map<std::string, double> Values(const svbench::Replay& replay) {
  std::map<std::string, double> values;
  for (const svbench::Metric& metric : svbench::ModelMetrics(replay)) {
    values[metric.name] = metric.value;
  }
  return values;
}

}  // namespace

int main() {
  // A tenant as HarvestTenant fills it in a fleet: per-tenant values beside
  // the machine-wide totals every tenant sees.
  svagc::workloads::RunResult tenant;
  tenant.throughput_ops = 250;
  tenant.tier_faults = 7;
  tenant.physical_bytes_written = 3ULL << 20;
  tenant.tier_relinks_swapped = 11;
  tenant.machine_counters = {{"swapva.pages_swapped", 13}, {"ipi.sent", 17}};

  svbench::Replay one, four;
  one.tenants = {tenant};
  four.tenants = {tenant, tenant, tenant, tenant};
  const std::map<std::string, double> a = Values(one);
  const std::map<std::string, double> b = Values(four);

  int failures = 0;
  auto expect = [&](const char* name, double factor) {
    const double want = factor * a.at(name);
    const bool ok = a.at(name) != 0 && b.at(name) == want;
    std::printf("%s %s: 1 tenant %g, 4 tenants %g, want %g\n",
                ok ? "ok  " : "FAIL", name, a.at(name), b.at(name), want);
    if (!ok) ++failures;
  };
  expect("model_ops_per_s", 4);          // summed over tenants
  expect("simkernel.tier_faults", 4);    // one far tier per tenant
  expect("runtime.phys_written_mb", 1);  // one physical memory
  expect("simkernel.tier_relinks", 1);   // one kernel
  expect("simkernel.pages_swapped", 1);  // one machine
  expect("simkernel.ipis", 1);
  return failures == 0 ? 0 : 1;
}
