// Fig. 20 (extension): the multi-tenant fleet arbiter ablation. N SVAGC
// tenants run the LRU-cache workload open-loop on one 32-core machine, and
// the three coordination mechanisms are switched on cumulatively:
//
//   off       — uncoordinated: every tenant collects inline at its own
//               pressure trigger, concurrent cycles pile their GC gangs and
//               their per-process shootdowns on top of each other (Fig. 2's
//               problem, now with SVAGC instead of ParallelGC).
//   batch     — concurrently admitted cycles form epochs; one multi-ASID
//               IPI round replaces the members' individual broadcasts.
//   batch+adm — plus admission control (at most K tenants in the swap-heavy
//               phase, priority aging) and pause-budget solo admission.
//
// Reported per row: worst-tenant pause stats, admission wait, SLO
// violations against SVAGC_FLEET_SLO_MS, and the shootdown economics.
//
// Env knobs: SVAGC_TENANTS (max tenant count), SVAGC_FLEET_SLO_MS (pause
// budget), SVAGC_FLEET_K (admission limit).
#include "bench/bench_util.h"
#include "fleet/fleet_runner.h"

using namespace svagc;
using namespace svagc::workloads;

namespace {

struct Arm {
  const char* name;
  fleet::ArbiterConfig arbiter;
};

}  // namespace

int main() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  std::printf("== Fig. 20: fleet arbiter ablation (SVAGC, LRUCache) ==\n");
  bench::PrintProfileHeader(profile);

  const unsigned max_tenants = bench::EnvUnsigned("SVAGC_TENANTS", 16);
  const double slo_ms = bench::EnvDouble("SVAGC_FLEET_SLO_MS", 0.25);
  const unsigned admission_k = bench::EnvUnsigned("SVAGC_FLEET_K", 2);
  const double slo_cycles = slo_ms * profile.ghz * 1e6;

  std::vector<unsigned> tenant_sweep;
  for (unsigned t : {1u, 8u, 16u}) {
    if (t <= max_tenants) tenant_sweep.push_back(t);
  }

  const Arm arms[] = {
      {"off", fleet::ArbiterOff()},
      {"batch", fleet::ArbiterBatch()},
      {"batch+adm", fleet::ArbiterBatchAdmission(admission_k, slo_cycles)},
  };

  TablePrinter table({"T/mode", "app time(ms)", "GC max(ms)", "GC p99(ms)",
                      "wait max(ms)", "observed max(ms)", "SLO viol",
                      "epochs", "coalesced", "IPIs", "emerg"});
  for (const unsigned tenants : bench::SmokeSweep(tenant_sweep)) {
    for (const Arm& arm : arms) {
      fleet::FleetConfig config;
      config.run.workload = "lrucache";
      config.run.collector = CollectorKind::kSvagc;
      config.run.profile = &profile;
      config.run.iterations = bench::SmokeIterations(20, 6);
      config.run.gc_threads = 4;  // paper: GCThreadsCount = 4 per JVM
      config.tenants = tenants;
      config.arbiter = arm.arbiter;
      config.slo_budget_ms = slo_ms;
      const fleet::FleetResult result = fleet::RunFleet(config);

      double app = 0;
      double wait_max = 0;
      std::uint64_t coalesced = 0;
      for (const RunResult& r : result.tenants) {
        app += r.app_cycles;
        wait_max = std::max(wait_max, r.gc_wait_max_cycles);
        coalesced +=
            FindCounter(r.gc_counters, "gc.flushes_coalesced").value_or(0);
      }
      app /= tenants;
      const bench::TenantPauses pauses =
          bench::WorstTenantPauses(result.tenants);
      table.AddRow({Format("%u/%s", tenants, arm.name),
                    bench::Ms(app, profile),
                    bench::Ms(pauses.max_cycles, profile),
                    bench::Ms(pauses.p99_cycles, profile),
                    bench::Ms(wait_max, profile),
                    bench::Ms(result.worst_observed_pause_cycles, profile),
                    Format("%llu", (unsigned long long)result.slo_violations),
                    Format("%llu", (unsigned long long)result.epochs),
                    Format("%llu", (unsigned long long)coalesced),
                    Format("%llu", (unsigned long long)result.ipis_sent),
                    Format("%llu", (unsigned long long)result.emergency_gcs)});
    }
  }
  bench::Emit("fig20", table);
  std::printf(
      "\nexpected: uncoordinated tenants pile GC gangs and shootdowns on top "
      "of each other; batching shares one IPI round per epoch, and admission "
      "control caps concurrent swap-heavy cycles — worst-tenant max pause "
      "and SLO violations drop at >= 8 tenants while single-tenant rows "
      "stay identical across arms.\n");
  return 0;
}
