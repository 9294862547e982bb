#include "workloads/runner.h"

#include "core/concurrent_svagc_collector.h"
#include "core/generational_collector.h"
#include "gc/shenandoah_gc.h"
#include "runtime/heap_verifier.h"
#include "support/align.h"

namespace svagc::workloads {

namespace {

bool UsesAlignedLargeObjects(CollectorKind kind) {
  switch (kind) {
    case CollectorKind::kSvagc:
    case CollectorKind::kSvagcNoSwap:
    case CollectorKind::kSvagcNaiveTlb:
    case CollectorKind::kConcurrentSvagc:
      return true;
    case CollectorKind::kParallelGc:
    case CollectorKind::kShenandoah:
    case CollectorKind::kSerialLisp2:
      return false;
  }
  return false;
}

// Every kind but kConcurrentSvagc is a ParallelLisp2 configuration.
std::unique_ptr<gc::ParallelLisp2> MakeLisp2(CollectorKind kind,
                                             sim::Machine& machine,
                                             const RunConfig& config,
                                             unsigned first_core) {
  switch (kind) {
    case CollectorKind::kParallelGc:
      return std::make_unique<gc::ParallelLisp2>(
          machine, config.gc_threads, first_core, CollectorKindName(kind));
    case CollectorKind::kShenandoah:
      return std::make_unique<gc::ShenandoahLike>(machine, config.gc_threads,
                                                  first_core);
    case CollectorKind::kSerialLisp2:
      // The Fig. 1 prototype: one worker, so forwarding and compaction take
      // the serial reference paths.
      return std::make_unique<gc::ParallelLisp2>(
          machine, /*gc_threads=*/1, first_core, CollectorKindName(kind));
    case CollectorKind::kSvagc:
    case CollectorKind::kSvagcNoSwap:
    case CollectorKind::kSvagcNaiveTlb:
    case CollectorKind::kConcurrentSvagc:
      break;
  }
  SVAGC_CHECK(kind != CollectorKind::kConcurrentSvagc);
  core::SvagcConfig svagc;
  svagc.move.threshold_pages = config.swap_threshold_pages;
  svagc.move.use_swapva = kind != CollectorKind::kSvagcNoSwap;
  svagc.pinned_compaction = kind != CollectorKind::kSvagcNaiveTlb;
  svagc.advise_cold_dense_prefix = config.advise_cold_dense_prefix;
  return std::make_unique<core::SvagcCollector>(machine, config.gc_threads,
                                                first_core, svagc);
}

std::unique_ptr<gc::CollectorBase> MakeCollector(CollectorKind kind,
                                                 sim::Machine& machine,
                                                 const RunConfig& config,
                                                 unsigned first_core) {
  if (kind == CollectorKind::kConcurrentSvagc) {
    // The concurrent collector owns the barrier slot, so it never sits
    // behind the generational front end.
    SVAGC_CHECK(!config.generational.enabled);
    core::ConcurrentSvagcConfig concurrent;
    concurrent.move.threshold_pages = config.swap_threshold_pages;
    if (config.concurrent_quantum_cycles > 0) {
      concurrent.quantum_cycles = config.concurrent_quantum_cycles;
    }
    return std::make_unique<core::ConcurrentSvagcCollector>(
        machine, first_core, concurrent);
  }

  std::unique_ptr<gc::ParallelLisp2> lisp2 =
      MakeLisp2(kind, machine, config, first_core);
  lisp2->set_forwarding_mode(config.forwarding);
  lisp2->set_compaction_scheduler(config.compaction_scheduler);
  gc::PlanOptimizerConfig optimizer = config.plan_optimizer;
  // Cold advice names the compaction plan's dense prefix; without the
  // dense-prefix elision pass no prefix exists to advise, so the knob
  // implies it.
  if (config.advise_cold_dense_prefix) optimizer.dense_prefix = true;
  lisp2->set_plan_optimizer(optimizer);
  if (!config.generational.enabled) return lisp2;

  core::GenerationalConfig gen;
  gen.young_bytes = config.generational.young_bytes;
  gen.young_fraction = config.generational.young_fraction;
  gen.young.zone_bytes = config.generational.zone_bytes;
  gen.bypass_bytes = config.generational.bypass_bytes;
  gen.tenure_age = config.generational.tenure_age;
  gen.pressure_enabled = config.generational.pressure;
  gen.verify_remset = config.generational.verify_remset;
  gen.gang_workers = config.gc_threads;
  gen.move.threshold_pages = config.swap_threshold_pages;
  // The nursery may swap only where large objects own their last page:
  // behind a memmove collector it copies.
  gen.move.use_swapva = kind == CollectorKind::kSvagc ||
                        kind == CollectorKind::kSvagcNaiveTlb;
  return std::make_unique<core::GenerationalCollector>(
      machine, first_core, std::move(lisp2), gen);
}

}  // namespace

TenantBundle MakeTenant(const RunConfig& config, sim::Machine& machine,
                        sim::PhysicalMemory& phys, sim::Kernel& kernel,
                        unsigned tenant, unsigned mutator_core,
                        unsigned gc_first_core, rt::vaddr_t heap_base) {
  TenantBundle bundle;
  bundle.workload = MakeWorkload(config.workload);
  SVAGC_CHECK(bundle.workload != nullptr);
  // Independent, deterministic per-tenant stream (tenant 0 keeps the
  // constructor stream, so single-tenant runs are unchanged).
  bundle.workload->SeedTenant(tenant);
  const WorkloadInfo& info = bundle.workload->info();

  rt::JvmConfig jvm_config;
  jvm_config.heap.base = heap_base;
  jvm_config.heap.capacity = AlignUp(
      static_cast<std::uint64_t>(static_cast<double>(info.min_heap_bytes) *
                                 config.heap_factor),
      sim::kPageSize);
  jvm_config.heap.swap_threshold_pages = config.swap_threshold_pages;
  jvm_config.heap.page_align_large = UsesAlignedLargeObjects(config.collector);
  jvm_config.logical_threads = info.logical_threads;
  jvm_config.mutator_core = mutator_core;
  jvm_config.gc_threads = config.gc_threads;
  jvm_config.name = info.name;

  bundle.jvm = std::make_unique<rt::Jvm>(machine, phys, kernel, jvm_config);
  bundle.jvm->set_collector(
      MakeCollector(config.collector, machine, config, gc_first_core));
  // A concurrent collector is also the mutators' barrier: wire it so the
  // workloads' barriered accessors route through it from the first cycle.
  // The generational front end is both a barrier (remembered set) and an
  // allocation front end (nursery).
  if (auto* barrier =
          dynamic_cast<rt::GcBarrier*>(&bundle.jvm->collector())) {
    bundle.jvm->set_gc_barrier(barrier);
  }
  if (auto* front_end =
          dynamic_cast<rt::AllocFrontEnd*>(&bundle.jvm->collector())) {
    bundle.jvm->set_alloc_front_end(front_end);
  }
  bundle.jvm->address_space().set_trace(config.trace);
  if (config.far_residency < 1.0) {
    SVAGC_CHECK(config.far_residency > 0.0);
    const std::uint64_t heap_pages =
        bundle.jvm->heap().capacity() >> sim::kPageShift;
    sim::FarTierConfig tier;
    tier.resident_limit_pages = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(heap_pages) *
                                      config.far_residency));
    sim::CpuContext tier_ctx(machine, mutator_core);
    bundle.jvm->address_space().EnableFarTier(kernel, tier_ctx, tier);
  }
  bundle.mutator_core = mutator_core;
  return bundle;
}

RunResult HarvestTenant(const RunConfig& config, sim::Machine& machine,
                        TenantBundle& bundle, unsigned iterations) {
  RunResult result;
  rt::Jvm& jvm = *bundle.jvm;
  result.info = bundle.workload->info();
  result.collector_name = jvm.collector().name();
  result.iterations = iterations;
  result.heap_bytes = jvm.heap().capacity();

  rt::GcLog& log = jvm.collector().log();
  result.gc_count = log.collections;
  if (auto* gen = dynamic_cast<core::GenerationalCollector*>(&jvm.collector())) {
    result.gc_full_count = gen->full_collections();
    result.gc_minor_count = gen->minor_collections();
    result.promoted_bytes = gen->promoted_bytes();
    result.premature_tenures = gen->premature_tenures();
  } else {
    result.gc_full_count = result.gc_count;
  }
  result.gc_total_cycles = log.pauses.total();
  result.gc_avg_cycles = log.pauses.mean();
  result.gc_max_cycles = log.pauses.max();
  result.gc_p99_cycles = log.pauses.Percentile(99);
  result.phase_sum = log.Sum();

  result.mutator_cycles = jvm.MutatorCycles();
  result.disturbance_cycles =
      static_cast<double>(machine.DisturbanceCycles(bundle.mutator_core));
  result.app_cycles =
      result.mutator_cycles + result.gc_total_cycles + result.disturbance_cycles;
  const double seconds = result.app_cycles / (machine.cost().ghz * 1e9);
  result.throughput_ops = seconds > 0 ? iterations / seconds : 0;

  result.alignment_waste_bytes = jvm.heap().alignment_waste_bytes();
  result.physical_bytes_written = jvm.address_space().phys().bytes_written();

  // Event totals come from the registries, their only tally: the tenant's
  // far tier for per-tenant traffic, the collector's for GC events and the
  // machine's for kernel and hardware events.
  if (const sim::FarTier* tier = jvm.address_space().far_tier()) {
    result.tier_faults = tier->faults();
    result.tier_swapins = tier->swapins();
    result.tier_evictions = tier->evictions();
    result.tier_far_bytes_written = tier->far_bytes_written();
    result.tier_relinks_swapped = jvm.kernel().relinks_swapped();
  }
  if (auto* base = dynamic_cast<gc::CollectorBase*>(&jvm.collector())) {
    const telemetry::MetricsRegistry& gc_metrics = base->metrics();
    result.bytes_copied = gc_metrics.CounterValue("gc.bytes_copied");
    result.bytes_swapped = gc_metrics.CounterValue("gc.bytes_swapped");
    result.swap_calls = gc_metrics.CounterValue("gc.swap_calls");
    result.gc_counters = gc_metrics.SnapshotCounters();
  }
  machine.PublishTlbMetrics();
  result.ipis_sent = machine.metrics().CounterValue("ipi.sent");
  result.machine_counters = machine.metrics().SnapshotCounters();

  if (config.verify_heap) {
    const rt::VerifyResult verify = rt::VerifyHeap(jvm);
    if (!verify.ok) {
      std::fprintf(stderr, "heap verification failed (%s / %s): %s\n",
                   result.info.name.c_str(), result.collector_name.c_str(),
                   verify.error.c_str());
    }
    SVAGC_CHECK(verify.ok);
  }
  return result;
}

std::optional<std::uint64_t> FindCounter(const CounterSnapshot& snapshot,
                                         std::string_view name) {
  for (const auto& [key, value] : snapshot) {
    if (key == name) return value;
  }
  return std::nullopt;
}

const char* CollectorKindName(CollectorKind kind) {
  switch (kind) {
    case CollectorKind::kSvagc:
      return "SVAGC";
    case CollectorKind::kSvagcNoSwap:
      return "SVAGC(memmove)";
    case CollectorKind::kSvagcNaiveTlb:
      return "SVAGC(naiveTLB)";
    case CollectorKind::kConcurrentSvagc:
      return "ConcurrentSVAGC";
    case CollectorKind::kParallelGc:
      return "ParallelGC";
    case CollectorKind::kShenandoah:
      return "Shenandoah";
    case CollectorKind::kSerialLisp2:
      return "SerialLISP2";
  }
  return "?";
}

RunResult RunWorkload(const RunConfig& config) {
  return RunMultiJvm(config, 1).front();
}

std::vector<RunResult> RunMultiJvm(const RunConfig& config, unsigned num_jvms) {
  SVAGC_CHECK(num_jvms >= 1);
  const sim::CostProfile& profile =
      config.profile != nullptr ? *config.profile : sim::ProfileXeonGold6130();
  sim::Machine machine(config.machine_cores, profile,
                       config.translation_backend);
  sim::Kernel kernel(machine);
  machine.set_tracer(config.trace_recorder != nullptr
                         ? config.trace_recorder
                         : telemetry::EnvTraceRecorder());
  machine.SetActiveMemoryStreams(num_jvms);

  auto workload_probe = MakeWorkload(config.workload);
  SVAGC_CHECK(workload_probe != nullptr);
  const std::uint64_t heap_bytes = static_cast<std::uint64_t>(
      static_cast<double>(workload_probe->info().min_heap_bytes) *
      config.heap_factor);
  sim::PhysicalMemory phys((heap_bytes + (8ULL << 20)) * num_jvms);

  std::vector<TenantBundle> bundles;
  bundles.reserve(num_jvms);
  for (unsigned j = 0; j < num_jvms; ++j) {
    const unsigned mutator_core = j % config.machine_cores;
    const unsigned gc_first_core =
        (j * config.gc_threads) % config.machine_cores;
    bundles.push_back(MakeTenant(config, machine, phys, kernel, /*tenant=*/j,
                                 mutator_core, gc_first_core,
                                 (1ULL << 32) + j * (1ULL << 36)));
    bundles.back().workload->Setup(*bundles.back().jvm);
  }

  const unsigned iterations = config.iterations != 0
                                  ? config.iterations
                                  : bundles.front().workload->default_iterations();
  // Interleave iterations round-robin, approximating concurrent execution.
  for (unsigned i = 0; i < iterations; ++i) {
    for (auto& bundle : bundles) bundle.workload->Iterate(*bundle.jvm);
  }

  std::vector<RunResult> results;
  results.reserve(num_jvms);
  for (auto& bundle : bundles) {
    results.push_back(HarvestTenant(config, machine, bundle, iterations));
  }
  return results;
}

}  // namespace svagc::workloads
