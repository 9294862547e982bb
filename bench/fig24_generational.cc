// Fig. 24: generational front end — zone-per-thread nursery, remembered-set
// minor GC, and SWAM-style pressure-driven triggering (ROADMAP item 4).
//
// Three arms per workload at 2x minimum heap:
//
//   gen-off         the stock full-heap SVAGC collector: every collection is
//                   a full LISP2 cycle triggered by heap exhaustion.
//   minor-only      nursery + remembered-set scavenges; full GCs happen only
//                   when the old space itself fills (pressure escalation off).
//   minor+pressure  production configuration: the PressureGovernor
//                   additionally escalates minor→full on old-space
//                   occupancy/slope and promotion-rate signals, so full
//                   cycles run before exhaustion forces them.
//
// The headline claim: on churn-heavy workloads (LRUCache, PageRank) the
// nursery absorbs the short-lived allocation traffic, cutting full-GC count
// by at least 3x and total modeled GC cycles outright — asserted below, not
// just printed.
//
// Env knobs: SVAGC_FIG24_ITERS pins the iteration count;
// SVAGC_FIG24_YOUNG_PCT / SVAGC_FIG24_TENURE override the nursery fraction
// and tenuring age for one-off sweeps (the defaults come from RunConfig).
#include "bench/bench_util.h"

using namespace svagc;
using namespace svagc::workloads;

namespace {

struct Arm {
  const char* label;
  bool generational;
  bool pressure;
};

constexpr Arm kArms[] = {
    {"gen-off", false, false},
    {"minor-only", true, false},
    {"minor+pressure", true, true},
};

RunResult RunArm(const std::string& workload, const Arm& arm,
                 unsigned iterations, const sim::CostProfile& profile) {
  RunConfig config;
  config.workload = workload;
  config.profile = &profile;
  config.heap_factor = 2.0;
  config.iterations = iterations;
  config.collector = CollectorKind::kSvagc;
  config.generational.enabled = arm.generational;
  config.generational.pressure = arm.pressure;
  if (const unsigned pct = bench::EnvUnsigned("SVAGC_FIG24_YOUNG_PCT", 0)) {
    config.generational.young_fraction = pct / 100.0;
  }
  if (const unsigned age = bench::EnvUnsigned("SVAGC_FIG24_TENURE", 0)) {
    config.generational.tenure_age = age;
  }
  return RunWorkload(config);
}

}  // namespace

int main() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  std::printf(
      "== Fig. 24: generational front end — full-GC count, GC cycles, "
      "throughput (2x min heap) ==\n");
  bench::PrintProfileHeader(profile);

  TablePrinter table({"benchmark", "arm", "full GCs", "minor GCs",
                      "GC(kcyc)", "throughput(op/s)", "promoted(MiB)",
                      "premature", "mk/fw/aj/cp/ot(kcyc)", "cp/sw(MiB)"});

  const unsigned iters_override = bench::EnvUnsigned("SVAGC_FIG24_ITERS", 0);
  struct Judged {
    std::string name;
    RunResult off, gen;
  };
  std::vector<Judged> judged;
  for (const std::string& name : std::vector<std::string>{
           "lrucache", "pagerank", "compress"}) {
    const unsigned iterations =
        iters_override != 0
            ? iters_override
            : bench::SmokeIterations(/*full=*/120, /*smoke=*/29);
    RunResult results[3];
    for (unsigned a = 0; a < 3; ++a) {
      results[a] = RunArm(name, kArms[a], iterations, profile);
      const RunResult& r = results[a];
      table.AddRow({r.info.display_name, kArms[a].label,
                    Format("%llu", (unsigned long long)r.gc_full_count),
                    Format("%llu", (unsigned long long)r.gc_minor_count),
                    Format("%.1f", r.gc_total_cycles / 1e3),
                    Format("%.0f", r.throughput_ops),
                    Format("%.1f", r.promoted_bytes / (1024.0 * 1024.0)),
                    Format("%llu", (unsigned long long)r.premature_tenures),
                    Format("%.0f/%.0f/%.0f/%.0f/%.0f", r.phase_sum.mark / 1e3,
                           r.phase_sum.forward / 1e3, r.phase_sum.adjust / 1e3,
                           r.phase_sum.compact / 1e3, r.phase_sum.other / 1e3),
                    Format("%.1f/%.1f", r.bytes_copied / (1024.0 * 1024.0),
                           r.bytes_swapped / (1024.0 * 1024.0))});
      if (a > 0 && (name == "lrucache" || name == "pagerank")) {
        judged.push_back({name + "/" + kArms[a].label, results[0], r});
      }
    }
  }
  bench::Emit("fig24", table);
  std::fflush(stdout);

  // Acceptance (churn workloads, full-length runs): the nursery cuts
  // full-GC count at least 3x and total modeled GC cycles outright, for
  // both generational arms. Only judged when the baseline collects often
  // enough for the ratio to be meaningful (smoke runs collect once or
  // twice). Emitted after the table so a failure still shows the data.
  for (const Judged& j : judged) {
    if (j.off.gc_full_count < 3) continue;
    std::printf("check %s: full %llu->%llu minor %llu cycles %.0fk->%.0fk\n",
                j.name.c_str(), (unsigned long long)j.off.gc_full_count,
                (unsigned long long)j.gen.gc_full_count,
                (unsigned long long)j.gen.gc_minor_count,
                j.off.gc_total_cycles / 1e3, j.gen.gc_total_cycles / 1e3);
    SVAGC_CHECK(j.gen.gc_full_count * 3 <= j.off.gc_full_count);
    SVAGC_CHECK(j.gen.gc_total_cycles < j.off.gc_total_cycles);
    SVAGC_CHECK(j.gen.gc_minor_count > 0);
  }

  std::printf(
      "\nminor scavenges trace roots + remembered set only, so their cost "
      "scales with the live young set, not the heap; large young survivors "
      "tenure via SwapVA (Table I row 2). Pressure escalation spends a full "
      "cycle early to keep the old-space slope from forcing back-to-back "
      "exhaustion GCs.\n");
  return 0;
}
