#include "metrics.h"

#include <cstdint>
#include <utility>

#include "simkernel/cost_model.h"

namespace svbench {

namespace sv = svagc;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::uint64_t Counter(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const char* name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace

double CyclesToMs(double cycles) {
  return cycles / (sv::sim::ProfileXeonGold6130().ghz * 1e6);
}

double Pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

std::vector<Metric> ModelMetrics(const Replay& r) {
  double ops = 0, gc = 0, mutator = 0, mark = 0, forward = 0, adjust = 0,
         compact = 0, other = 0, disturbance = 0, wait = 0;
  double collections = 0, regions = 0, copied = 0, swapped = 0, swap_calls = 0,
         minors = 0, fulls = 0, promoted = 0, premature = 0, waste = 0,
         heap = 0, faults = 0, evictions = 0, far_written = 0, emergencies = 0;
  for (const sv::workloads::RunResult& t : r.tenants) {
    ops += t.throughput_ops;
    gc += t.gc_total_cycles;
    mutator += t.mutator_cycles;
    mark += t.phase_sum.mark;
    forward += t.phase_sum.forward;
    adjust += t.phase_sum.adjust;
    compact += t.phase_sum.compact;
    other += t.phase_sum.other;
    disturbance += t.disturbance_cycles;
    wait += t.gc_wait_cycles;
    collections += static_cast<double>(t.gc_count);
    regions +=
        static_cast<double>(Counter(t.gc_counters, "gc.compact_regions"));
    copied += static_cast<double>(t.bytes_copied);
    swapped += static_cast<double>(t.bytes_swapped);
    swap_calls += static_cast<double>(t.swap_calls);
    minors += static_cast<double>(t.gc_minor_count);
    fulls += static_cast<double>(t.gc_full_count);
    promoted += static_cast<double>(t.promoted_bytes);
    premature += static_cast<double>(t.premature_tenures);
    waste += static_cast<double>(t.alignment_waste_bytes);
    heap += static_cast<double>(t.heap_bytes);
    faults += static_cast<double>(t.tier_faults);
    evictions += static_cast<double>(t.tier_evictions);
    far_written += static_cast<double>(t.tier_far_bytes_written);
    emergencies += static_cast<double>(t.emergency_gcs);
  }
  // Every tenant's harvest holds the same machine-wide totals: the machine
  // counters, physical memory's bytes written and the kernel's relinks.
  const sv::workloads::RunResult& first = r.tenants.front();
  auto mc = [&first](const char* name) {
    return static_cast<double>(Counter(first.machine_counters, name));
  };
  const double pmd = mc("pmd.hits") + mc("pmd.misses");
  const double tlb = mc("tlb.hits") + mc("tlb.misses");
  const sv::fleet::FleetResult& f = r.fleet;  // all zero off the fleet
  return {
      {"model_ops_per_s", "model_ops/s", ops},
      {"model_gc_ms", "model_ms", CyclesToMs(gc)},
      {"workloads.mutator_model_ms", "model_ms", CyclesToMs(mutator)},
      {"runtime.alignment_waste_pct", "%", Pct(waste, heap)},
      {"runtime.phys_written_mb", "MiB",
       static_cast<double>(first.physical_bytes_written) / kMiB},
      {"gc.collections", "count", collections},
      {"gc.mark_ms", "model_ms", CyclesToMs(mark)},
      {"gc.forward_ms", "model_ms", CyclesToMs(forward)},
      {"gc.adjust_ms", "model_ms", CyclesToMs(adjust)},
      {"gc.compact_ms", "model_ms", CyclesToMs(compact)},
      {"gc.other_ms", "model_ms", CyclesToMs(other)},
      {"gc.compact_regions", "count", regions},
      {"core.copied_mb", "MiB", copied / kMiB},
      {"core.swapped_mb", "MiB", swapped / kMiB},
      {"core.swap_share_pct", "%", Pct(swapped, copied + swapped)},
      {"core.swap_calls", "count", swap_calls},
      {"core.minors", "count", minors},
      {"core.fulls", "count", fulls},
      {"core.promoted_mb", "MiB", promoted / kMiB},
      {"core.premature_tenures", "count", premature},
      {"simkernel.pages_swapped", "count", mc("swapva.pages_swapped")},
      {"simkernel.pmd_hit_pct", "%", Pct(mc("pmd.hits"), pmd)},
      {"simkernel.tlb_miss_pct", "%", Pct(mc("tlb.misses"), tlb)},
      {"simkernel.asid_flushes", "count", mc("tlb.asid_flushes")},
      {"simkernel.page_flushes", "count", mc("tlb.page_flushes")},
      {"simkernel.ipis", "count", mc("ipi.sent")},
      {"simkernel.walks", "count", mc("kernel.translation.walks")},
      {"simkernel.disturbance_ms", "model_ms", CyclesToMs(disturbance)},
      {"simkernel.tier_faults", "count", faults},
      {"simkernel.tier_evictions", "count", evictions},
      {"simkernel.tier_far_written_mb", "MiB", far_written / kMiB},
      {"simkernel.tier_relinks", "count",
       static_cast<double>(first.tier_relinks_swapped)},
      {"memsim.llc_miss_pct", "%", r.llc_miss_pct},
      {"memsim.dtlb_miss_pct", "%", r.dtlb_miss_pct},
      {"fleet.epochs", "count", static_cast<double>(f.epochs)},
      {"fleet.solo_epochs", "count", static_cast<double>(f.solo_epochs)},
      {"fleet.broadcasts", "count", static_cast<double>(f.epoch_broadcasts)},
      {"fleet.broadcast_fallbacks", "count",
       static_cast<double>(f.broadcast_fallbacks)},
      {"fleet.gc_wait_ms", "model_ms", CyclesToMs(wait)},
      {"fleet.arbiter_ms", "model_ms", CyclesToMs(f.arbiter_cycles)},
      {"fleet.emergency_gcs", "count", emergencies},
  };
}

}  // namespace svbench
