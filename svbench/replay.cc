#include "replay.h"

#include <time.h>

#include <chrono>
#include <memory>
#include <optional>

#include "core/generational_collector.h"
#include "core/svagc_collector.h"
#include "memsim/hierarchy.h"
#include "runtime/heap_verifier.h"
#include "simkernel/phys_mem.h"
#include "spans.h"
#include "support/check.h"
#include "verify/graph_digest.h"

namespace svbench {

namespace sv = svagc;
using sv::workloads::CollectorKind;
using sv::workloads::RunConfig;

namespace {

using Clock = std::chrono::steady_clock;

// Both host clocks at one instant.
struct Stamp {
  Clock::time_point wall;
  double cpu = 0;  // process CPU seconds, every thread

  static Stamp Now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return {Clock::now(), static_cast<double>(ts.tv_sec) +
                              static_cast<double>(ts.tv_nsec) / 1e9};
  }
};

double WallSeconds(const Stamp& from, const Stamp& to) {
  return std::chrono::duration<double>(to.wall - from.wall).count();
}

// Every collector gets two GC worker threads instead of RunConfig's 16, so
// that at most two are runnable at a time on a small host.
constexpr unsigned kGcThreads = 2;

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    // Every moved object is above the 10-page swap threshold, so compaction
    // is pure SwapVA PTE exchange: the paper's mechanism.
    s.name = "large-swap";
    s.run.workload = "sparse.large";
    s.run.heap_factor = 1.2;
    s.iterations = 300;
    s.tiny_iterations = 40;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    // Old-to-young stores drive the remembered set, nursery zones, survivor
    // copying and SwapVA tenuring (fig24's minor+pressure arm). Replays stay
    // well below the ~2400 iterations at which long generational lrucache
    // runs corrupt the heap (README.md, known defects).
    s.name = "gen-churn";
    s.run.workload = "lrucache";
    s.run.heap_factor = 2.0;
    s.run.generational.enabled = true;
    s.run.generational.pressure = true;
    s.iterations = 1000;
    s.tiny_iterations = 60;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    // The memsim cache/DTLB model sees every access, as in Table III; its
    // OnAccess dominates host time here and is absent everywhere else.
    s.name = "cache-trace";
    s.run.workload = "pagerank";
    s.run.heap_factor = 1.2;
    s.memsim = true;
    s.iterations = 20;
    s.tiny_iterations = 4;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    // Four tenants at 0.7 near-tier residency queue their GCs at fig20's
    // admission arbiter (K = 2): the only workload using src/fleet and the
    // far tier.
    s.name = "fleet-overcommit";
    s.run.workload = "lrucache";
    s.run.far_residency = 0.7;
    s.fleet_tenants = 4;
    s.slo_budget_ms = 0.25;
    s.arbiter = sv::fleet::ArbiterBatchAdmission(
        /*max_concurrent=*/2,
        s.slo_budget_ms * sv::sim::ProfileXeonGold6130().ghz * 1e6);
    s.iterations = 90;
    s.tiny_iterations = 6;
    specs.push_back(s);
  }
  for (WorkloadSpec& s : specs) {
    s.run.collector = CollectorKind::kSvagc;
    s.run.gc_threads = kGcThreads;
  }
  return specs;
}

std::uint64_t HeapBytes(const RunConfig& config) {
  const auto probe = sv::workloads::MakeWorkload(config.workload);
  SVAGC_CHECK(probe != nullptr);
  return static_cast<std::uint64_t>(
      static_cast<double>(probe->info().min_heap_bytes) * config.heap_factor);
}

// The collector MakeTenant builds for `config`, rebuilt through the public
// constructors so the traced run can put it behind forwarding wrappers.
std::unique_ptr<sv::rt::CollectorIface> BuildCollector(
    const RunConfig& config, sv::sim::Machine& machine) {
  SVAGC_CHECK(config.collector == CollectorKind::kSvagc ||
              config.collector == CollectorKind::kSvagcNoSwap);
  sv::core::SvagcConfig svagc;
  svagc.move.threshold_pages = config.swap_threshold_pages;
  svagc.move.use_swapva = config.collector == CollectorKind::kSvagc;
  svagc.advise_cold_dense_prefix = config.advise_cold_dense_prefix;
  auto lisp2 = std::make_unique<sv::core::SvagcCollector>(
      machine, config.gc_threads, /*first_core=*/0, svagc);
  lisp2->set_forwarding_mode(config.forwarding);
  lisp2->set_compaction_scheduler(config.compaction_scheduler);
  lisp2->set_plan_optimizer(config.plan_optimizer);
  if (!config.generational.enabled) return lisp2;

  sv::core::GenerationalConfig gen;
  gen.young_bytes = config.generational.young_bytes;
  gen.young_fraction = config.generational.young_fraction;
  gen.young.zone_bytes = config.generational.zone_bytes;
  gen.bypass_bytes = config.generational.bypass_bytes;
  gen.tenure_age = config.generational.tenure_age;
  gen.pressure_enabled = config.generational.pressure;
  gen.verify_remset = config.generational.verify_remset;
  gen.gang_workers = config.gc_threads;
  gen.move.threshold_pages = config.swap_threshold_pages;
  gen.move.use_swapva = config.collector == CollectorKind::kSvagc;
  return std::make_unique<sv::core::GenerationalCollector>(
      machine, /*first_core=*/0, std::move(lisp2), gen);
}

Replay RunSingle(const WorkloadSpec& spec, std::uint32_t seed,
                 const ReplayOptions& options) {
  RunConfig config = spec.run;
  config.iterations = options.iterations;
  if (options.arm == Arm::kReference) {
    config.collector = CollectorKind::kSvagcNoSwap;
  }
  const bool memsim = spec.memsim && options.arm == Arm::kMeasured;
  const std::uint64_t heap_bytes = HeapBytes(config);
  const sv::sim::CostProfile& profile = sv::sim::ProfileXeonGold6130();
  SpanLog* spans = options.spans;

  Replay replay;
  const Stamp start = Stamp::Now();
  if (spans != nullptr) spans->Open();
  sv::sim::Machine machine(config.machine_cores, profile,
                           config.translation_backend);
  sv::sim::Kernel kernel(machine);
  sv::sim::PhysicalMemory phys(heap_bytes + (8ULL << 20));
  // Modeled caches start empty in every replay, as in Table III.
  std::optional<sv::memsim::MemoryHierarchy> hierarchy;
  std::optional<TracedMemSink> traced_sink;
  if (memsim) {
    hierarchy.emplace(sv::memsim::HierarchyConfig::ScaledForSmallHeaps());
    config.trace = &*hierarchy;
    if (spans != nullptr) {
      traced_sink.emplace(*hierarchy, *spans);
      config.trace = &*traced_sink;
    }
  }
  std::optional<TracedFrontEnd> traced_front_end;
  TracedCollector* traced = nullptr;
  sv::workloads::TenantBundle bundle = sv::workloads::MakeTenant(
      config, machine, phys, kernel, /*tenant=*/seed, /*mutator_core=*/0,
      /*gc_first_core=*/0, /*heap_base=*/1ULL << 32);
  sv::rt::Jvm& jvm = *bundle.jvm;
  if (spans != nullptr) {
    std::unique_ptr<sv::rt::CollectorIface> inner =
        BuildCollector(config, machine);
    auto* gen = dynamic_cast<sv::core::GenerationalCollector*>(inner.get());
    auto wrapper = std::make_unique<TracedCollector>(std::move(inner), *spans);
    traced = wrapper.get();
    jvm.set_collector(std::move(wrapper));
    if (gen != nullptr) {
      traced_front_end.emplace(*gen, *spans);
      jvm.set_gc_barrier(gen);
      jvm.set_alloc_front_end(&*traced_front_end);
    }
  }
  bundle.workload->Setup(jvm);
  if (spans != nullptr) spans->Close(Layer::kSetup);
  const Stamp setup_end = Stamp::Now();

  for (unsigned i = 0; i < options.iterations; ++i) {
    if (spans != nullptr) spans->Open();
    bundle.workload->Iterate(jvm);
    if (spans != nullptr) spans->Close(Layer::kIterate);
  }
  const Stamp loop_end = Stamp::Now();
  replay.setup_cpu_s = setup_end.cpu - start.cpu;
  replay.loop_cpu_s = loop_end.cpu - setup_end.cpu;
  replay.loop_wall_s = WallSeconds(setup_end, loop_end);
  replay.wall_s = WallSeconds(start, loop_end);
  replay.ops = options.iterations;

  if (traced != nullptr) {
    // Harvest from the real collector, not the forwarding shell.
    if (traced_front_end) replay.alloc_calls = traced_front_end->calls();
    jvm.set_collector(traced->Release());
  }
  if (traced_sink) {
    replay.memsim_accesses = traced_sink->accesses();
    replay.memsim_lines = traced_sink->lines();
  }
  replay.tenants.push_back(sv::workloads::HarvestTenant(
      config, machine, bundle, options.iterations));
  for (const std::uint64_t pause : jvm.collector().log().pauses.samples()) {
    replay.pause_cycles.push_back(static_cast<double>(pause));
  }
  if (hierarchy) {
    replay.llc_miss_pct = hierarchy->LlcMissRatePercent();
    replay.dtlb_miss_pct = hierarchy->DtlbMissRatePercent();
  }
  const sv::rt::VerifyResult verified = sv::rt::VerifyHeap(jvm);
  replay.heap_ok = verified.ok;
  replay.heap_error = verified.error;
  replay.digests.push_back(sv::verify::DigestReachableGraph(jvm));
  return replay;
}

Replay RunFleetReplay(const WorkloadSpec& spec, std::uint32_t seed,
                      const ReplayOptions& options) {
  sv::fleet::FleetConfig config;
  config.run = spec.run;
  config.run.iterations = options.iterations;
  if (options.arm == Arm::kReference) {
    config.run.collector = CollectorKind::kSvagcNoSwap;
  }
  config.tenants = spec.fleet_tenants;
  config.arbiter = spec.arbiter;
  config.slo_budget_ms = spec.slo_budget_ms;
  config.arrival_interval_ms = 0;  // saturating arrivals
  config.arrival_seed = seed;
  config.digest_heaps = true;
  sv::telemetry::TraceRecorder cycles;
  if (options.fleet_pauses) config.run.trace_recorder = &cycles;
  SpanLog* spans = options.spans;

  // RunFleet builds its tenants internally, so time the same MakeTenant +
  // Setup calls it makes on a machine of its own and take that time out of
  // RunFleet's wall time.
  Replay replay;
  const Stamp start = Stamp::Now();
  Stamp setup_end;
  {
    const RunConfig& run = config.run;
    if (spans != nullptr) spans->Open();
    sv::sim::Machine machine(run.machine_cores,
                             sv::sim::ProfileXeonGold6130());
    sv::sim::Kernel kernel(machine);
    sv::sim::PhysicalMemory phys((HeapBytes(run) + (8ULL << 20)) *
                                 config.tenants);
    std::vector<sv::workloads::TenantBundle> bundles;
    for (unsigned j = 0; j < config.tenants; ++j) {
      bundles.push_back(sv::workloads::MakeTenant(
          run, machine, phys, kernel, /*tenant=*/j, j % run.machine_cores,
          (j * run.gc_threads) % run.machine_cores,
          (1ULL << 32) + j * (1ULL << 36)));
      bundles.back().workload->Setup(*bundles.back().jvm);
    }
    if (spans != nullptr) spans->Close(Layer::kSetup);
    setup_end = Stamp::Now();
  }
  replay.setup_cpu_s = setup_end.cpu - start.cpu;

  const Stamp run_start = Stamp::Now();
  if (spans != nullptr) spans->Open();
  replay.fleet = sv::fleet::RunFleet(config);
  if (spans != nullptr) spans->Close(Layer::kFleetRun);
  const Stamp run_end = Stamp::Now();
  replay.loop_cpu_s = run_end.cpu - run_start.cpu - replay.setup_cpu_s;
  replay.loop_wall_s =
      WallSeconds(run_start, run_end) - WallSeconds(start, setup_end);
  replay.wall_s =
      WallSeconds(start, setup_end) + WallSeconds(run_start, run_end);

  replay.tenants = std::move(replay.fleet.tenants);
  for (const sv::workloads::RunResult& tenant : replay.tenants) {
    replay.ops += tenant.iterations;
    replay.digests.push_back(tenant.heap_digest);
  }
  for (const sv::telemetry::TraceEvent& event : cycles.Snapshot()) {
    if (event.cat == "gc" && event.name == "cycle") {
      replay.pause_cycles.push_back(event.dur);
    }
  }
  return replay;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = BuildWorkloads();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Replay RunReplay(const WorkloadSpec& spec, std::uint32_t seed,
                 const ReplayOptions& options) {
  return spec.fleet_tenants > 0 ? RunFleetReplay(spec, seed, options)
                                : RunSingle(spec, seed, options);
}

}  // namespace svbench
