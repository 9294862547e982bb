// Experiment runner: wires a workload, a collector and a simulated machine
// together, runs it, and reports the quantities the paper's figures plot.
// Shared by all benches and the integration tests.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/svagc_collector.h"
#include "simkernel/cost_model.h"
#include "simkernel/trace.h"
#include "simkernel/translation.h"
#include "telemetry/trace_recorder.h"
#include "workloads/workload.h"

namespace svagc::workloads {

enum class CollectorKind {
  kSvagc,            // full SVAGC: SwapVA + aggregation + PMD cache + pinning
  kSvagcNoSwap,      // SVAGC layout but memmove-only (Fig. 11 left bars)
  kSvagcNaiveTlb,    // SwapVA with per-call global shootdowns (Fig. 9 naive)
  kConcurrentSvagc,  // mutator-concurrent SVAGC (SATB mark + incremental
                     // SwapVA evacuation; see src/gc/concurrent_svagc.h)
  kParallelGc,       // ParallelGC-like baseline
  kShenandoah,       // Shenandoah-like baseline
  kSerialLisp2,      // serial LISP2 prototype (Fig. 1)
};

const char* CollectorKindName(CollectorKind kind);

// A name-ordered registry snapshot, as RunResult exports them.
using CounterSnapshot = std::vector<std::pair<std::string, std::uint64_t>>;

// Counter `name` of `snapshot`; nullopt when the run never created it.
std::optional<std::uint64_t> FindCounter(const CounterSnapshot& snapshot,
                                         std::string_view name);

struct RunConfig {
  std::string workload;
  CollectorKind collector = CollectorKind::kSvagc;
  double heap_factor = 1.2;  // x minimum heap (paper: 1.2x and 2x)
  // HotSpot picks ~5/8 of the cores for ParallelGCThreads on big machines;
  // 16 on the 32-core testbed. The multi-JVM experiments override this to 4
  // per JVM as the paper does (Fig. 2 caption: GCThreadsCount = 4).
  unsigned gc_threads = 16;
  unsigned iterations = 0;   // 0 = workload default
  unsigned machine_cores = 32;
  std::uint64_t swap_threshold_pages = 10;
  // kConcurrentSvagc only: per-[STW]-window work budget in modeled cycles.
  // 0 keeps gc::ConcurrentSvagcConfig's default. fig22 sweeps pause bounds
  // through this without constructing collectors by hand.
  double concurrent_quantum_cycles = 0;
  // Phase II / phase IV strategy knobs (fig17 sweeps these; the defaults
  // are the production configuration used by every other figure).
  gc::ForwardingMode forwarding = gc::ForwardingMode::kParallelSummary;
  gc::CompactionSchedulerKind compaction_scheduler =
      gc::CompactionSchedulerKind::kWorkStealing;
  // Compaction-plan optimizer (fig19 sweeps the knobs; all off by default,
  // which keeps plans bit-identical to the unoptimized pipeline).
  gc::PlanOptimizerConfig plan_optimizer;
  const sim::CostProfile* profile = nullptr;  // default: Xeon Gold 6130
  sim::MemTraceSink* trace = nullptr;         // Table III cache/DTLB sink
  // Span-trace sink attached to the machine for the whole run. When null the
  // runner falls back to telemetry::EnvTraceRecorder(), which is how setting
  // SVAGC_TRACE_OUT=<path> gives every bench/fig harness trace output with
  // no per-harness code.
  telemetry::TraceRecorder* trace_recorder = nullptr;
  bool verify_heap = false;  // run the full heap verifier after the run

  // Overcommit pressure mode: near-tier residency as a fraction of the
  // tenant's heap pages. Below 1.0 each tenant gets a far tier sized to
  // that fraction right after construction, so mutator and GC run against
  // a heap that does not fit in DRAM (faults, evictions, and — under
  // SVAGC — swapped-entry relinks all exercised). 1.0 = no far tier.
  double far_residency = 1.0;
  // With a far tier: the SVAGC compaction epilogue advises the dense
  // prefix cold (SysMadviseCold) so demand faults fall on mutator-hot pages
  // less often. Implies plan_optimizer.dense_prefix (no prefix exists to
  // advise without the elision pass). Ignored by non-SVAGC collectors and
  // without a far tier.
  bool advise_cold_dense_prefix = false;

  // Page-table backend for the whole machine (the generational digest tests
  // run both; every pre-existing figure keeps the radix default).
  sim::TranslationBackend translation_backend = sim::TranslationBackend::kRadix;

  // Generational front end (ROADMAP item 4): wraps the configured STW
  // LISP2-family collector in a zone-per-thread nursery with remembered-set
  // minor GC and SWAM-style pressure escalation. Incompatible with
  // kConcurrentSvagc and kSerialLisp2 (the former owns the barrier slot,
  // the latter is not a phase engine).
  struct GenerationalOptions {
    bool enabled = false;
    std::uint64_t young_bytes = 0;   // nursery target; 0 = auto (fraction)
    double young_fraction = 0.65;    // auto target: fraction of free heap
    std::uint64_t zone_bytes = 256ULL << 10;   // per-thread zone cap
    std::uint64_t bypass_bytes = 512ULL << 10;  // straight to old space
    unsigned tenure_age = 6;     // minors survived before promotion
    bool pressure = true;        // SWAM-style minor→full escalation
    bool verify_remset = false;  // per-minor superset oracle (tests)
  };
  GenerationalOptions generational;
};

struct RunResult {
  WorkloadInfo info;
  std::string collector_name;
  unsigned iterations = 0;

  std::uint64_t gc_count = 0;  // all collections (minor + full)
  // Generational split: without a front end gc_full_count == gc_count and
  // the rest stay zero.
  std::uint64_t gc_full_count = 0;
  std::uint64_t gc_minor_count = 0;
  std::uint64_t promoted_bytes = 0;      // bytes tenured by minor GCs
  std::uint64_t premature_tenures = 0;   // tenured only because young filled
  double gc_total_cycles = 0;
  double gc_avg_cycles = 0;
  double gc_max_cycles = 0;
  double gc_p99_cycles = 0;  // pause-time p99 across this run's cycles
  rt::GcCycleRecord phase_sum;  // per-phase totals across all cycles

  // Fleet-mode SLO accounting, filled by fleet::RunFleet (zero elsewhere).
  // "Observed pause" is what the tenant's mutator experiences per cycle:
  // admission-queue wait plus the STW pause itself.
  double gc_wait_cycles = 0;             // total admission-queue wait
  double gc_wait_max_cycles = 0;         // worst single-cycle wait
  double observed_pause_max_cycles = 0;  // max(wait + pause) over cycles
  std::uint64_t slo_violations = 0;      // cycles with STW pause > budget
  double slo_budget_cycles = 0;          // the budget those were judged by
  std::uint64_t emergency_gcs = 0;       // exhaustion GCs that bypassed the
                                         // arbiter (allocation-failure path)
  std::uint64_t heap_digest = 0;         // semantic end-of-run heap digest,
                                         // filled when FleetConfig asks for
                                         // it (fleet differential tests)

  double mutator_cycles = 0;
  double disturbance_cycles = 0;  // IPIs landing on this JVM's core
  double app_cycles = 0;          // mutator + pauses + disturbance

  // Operations per second of modeled time (iterations / app seconds).
  double throughput_ops = 0;

  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_swapped = 0;
  std::uint64_t swap_calls = 0;
  std::uint64_t ipis_sent = 0;
  std::uint64_t heap_bytes = 0;
  std::uint64_t alignment_waste_bytes = 0;  // paper bound: < 5% of heap
  std::uint64_t physical_bytes_written = 0;  // NVM-wear proxy (section VI)

  // Far-tier traffic (zero without a far tier). These come from the
  // tenant's own tier, not the machine registry, which sums every tenant;
  // only the relink count is the machine's (kernel.tier.relinks_swapped).
  std::uint64_t tier_faults = 0;
  std::uint64_t tier_swapins = 0;
  std::uint64_t tier_evictions = 0;
  std::uint64_t tier_far_bytes_written = 0;
  std::uint64_t tier_relinks_swapped = 0;  // SwapVA relinks of swapped PTEs

  // Name-ordered counter snapshots from the telemetry registries:
  // machine-side (IPIs, TLB, SwapVA, PMD cache) and collector-side (GC
  // byte/object totals).
  CounterSnapshot machine_counters;
  CounterSnapshot gc_counters;
};

// --- building blocks shared with the fleet layer (src/fleet) ----------------

// One tenant: a JVM wired to its collector plus the workload instance that
// drives it. The workload's RNG stream is already derived for `tenant`
// (SeedTenant); Setup has NOT been run.
struct TenantBundle {
  std::unique_ptr<rt::Jvm> jvm;
  std::unique_ptr<Workload> workload;
  unsigned mutator_core = 0;
};

TenantBundle MakeTenant(const RunConfig& config, sim::Machine& machine,
                        sim::PhysicalMemory& phys, sim::Kernel& kernel,
                        unsigned tenant, unsigned mutator_core,
                        unsigned gc_first_core, rt::vaddr_t heap_base);

// Reads the collector log, machine counters and telemetry registries into a
// RunResult (the fleet fields stay zero — the fleet runner fills them).
RunResult HarvestTenant(const RunConfig& config, sim::Machine& machine,
                        TenantBundle& bundle, unsigned iterations);

// Single-JVM experiment on a fresh machine.
RunResult RunWorkload(const RunConfig& config);

// Multi-JVM experiment (Figs. 2 and 14): `num_jvms` JVMs of the same
// workload/collector run interleaved on one machine; JVM j's mutator is
// pinned to core j and its GC workers to cores [j*gc_threads, ...). Returns
// one result per JVM.
std::vector<RunResult> RunMultiJvm(const RunConfig& config, unsigned num_jvms);

}  // namespace svagc::workloads
