#include "fleet/fleet_runner.h"

#include <algorithm>
#include <cmath>

#include "gc/collector.h"
#include "simkernel/phys_mem.h"
#include "support/check.h"
#include "support/rng.h"
#include "verify/differential_oracle.h"

namespace svagc::fleet {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

struct TenantState {
  unsigned id = 0;
  workloads::TenantBundle bundle;

  // Open-loop arrival clock (modeled cycles on this tenant's local timeline).
  Rng arrivals{0};
  double gap_mean = 0;
  double local_now = 0;
  double next_arrival = 0;

  unsigned ops_done = 0;
  unsigned ops_total = 0;
  bool awaiting = false;       // stalled in the arbiter's admission queue
  double wait_pending = 0;     // wait accrued by the queued request so far
  std::size_t cycles_seen = 0; // GcLog::cycles consumed by SLO accounting

  // SLO accounting.
  double wait_total = 0;
  double wait_max = 0;
  double observed_max = 0;
  std::uint64_t violations = 0;
  std::uint64_t emergencies = 0;

  bool done() const { return ops_done >= ops_total; }
  bool runnable() const { return !done() && !awaiting; }

  // The tenant's collector as a stepwise engine: MakeTenant builds every
  // collector on gc::CollectorBase.
  gc::CollectorBase& engine() {
    return static_cast<gc::CollectorBase&>(bundle.jvm->collector());
  }
};

class FleetRun {
 public:
  explicit FleetRun(const FleetConfig& config)
      : config_(config),
        profile_(config.run.profile != nullptr ? *config.run.profile
                                               : sim::ProfileXeonGold6130()),
        machine_(config.run.machine_cores, profile_),
        kernel_(machine_),
        arbiter_(kernel_, config.arbiter, machine_.num_cores() - 1),
        slo_cycles_(config.slo_budget_ms * machine_.cost().ghz * 1e6) {}

  FleetResult Run();

 private:
  double BusyCycles(const TenantState& t) const {
    return t.bundle.jvm->MutatorCycles() + t.bundle.jvm->GcCycles();
  }

  unsigned CountRunnable() const {
    unsigned n = 0;
    for (const TenantState& t : tenants_) n += t.runnable();
    return n;
  }

  bool UnderPressure(const TenantState& t) const {
    rt::Heap& heap = t.bundle.jvm->heap();
    const std::uint64_t threads = t.bundle.jvm->num_mutators();
    const std::uint64_t headroom = std::max<std::uint64_t>(
        config_.trigger_headroom_tlabs * (64 * sim::kPageSize) * threads,
        heap.capacity() / 8);
    return heap.used() + headroom >= heap.capacity();
  }

  double NextGap(TenantState& t) {
    if (t.gap_mean <= 0) return 0;
    // Exponential inter-arrival; 1 - U keeps the argument in (0, 1].
    return -t.gap_mean * std::log(1.0 - t.arrivals.NextDouble());
  }

  // Observes one completed cycle for SLO purposes. `wait` is admission-queue
  // wait (0 for inline and emergency cycles). The SLO judges the STW pause
  // itself — the quantity the paper's pause-time figures measure; the wait
  // is reported separately (this harness stalls a tenant at request time,
  // which overstates how long a real concurrently-mutating JVM would block).
  // The arbiter's pause-budget feedback does see wait + pause, so a tenant
  // that queued long is boosted to solo admission next time.
  void Observe(TenantState& t, double wait, double pause) {
    t.wait_total += wait;
    t.wait_max = std::max(t.wait_max, wait);
    const double observed = wait + pause;
    t.observed_max = std::max(t.observed_max, observed);
    if (slo_cycles_ > 0 && pause > slo_cycles_) ++t.violations;
    arbiter_.RecordObservedPause(t.id, observed);
  }

  // Folds cycles the collector logged since the last call into the SLO
  // accounting; the most recent one carries `wait_for_last`. Returns how
  // many were new.
  std::size_t ProcessNewCycles(TenantState& t, double wait_for_last) {
    const rt::GcLog& log = t.bundle.jvm->collector().log();
    const std::size_t before = t.cycles_seen;
    while (t.cycles_seen < log.cycles.size()) {
      const bool last = t.cycles_seen + 1 == log.cycles.size();
      Observe(t, last ? wait_for_last : 0, log.cycles[t.cycles_seen].Total());
      ++t.cycles_seen;
    }
    return t.cycles_seen - before;
  }

  // Uncoordinated inline GC (arbiter off): the Fig. 2 behaviour. Cycles are
  // modeled as overlapping with every tenant currently over pressure *and*
  // with the GC traffic level of the previous round (a round is the
  // scheduler's time quantum: cycles in adjacent rounds share the machine),
  // so their GC gangs all stream against each other.
  void InlineGc(TenantState& t) {
    ++inline_gcs_this_round_;
    unsigned active = 0;
    unsigned overlap = 0;
    for (const TenantState& other : tenants_) {
      if (other.done()) continue;
      ++active;
      if (UnderPressure(other)) ++overlap;
    }
    SVAGC_CHECK(overlap >= 1);  // t itself triggered
    overlap = std::max(
        overlap, std::min(active, std::max(1u, inline_gcs_last_round_)));
    const unsigned gang = config_.run.gc_threads;
    const unsigned prev = machine_.active_memory_streams();
    machine_.SetActiveMemoryStreams((active - overlap) + (overlap - 1) * gang +
                                    1);
    rt::Jvm& jvm = *t.bundle.jvm;
    jvm.collector().Collect(jvm);
    machine_.SetActiveMemoryStreams(prev);
    const rt::GcLog& log = jvm.collector().log();
    SVAGC_CHECK(!log.cycles.empty());
    t.local_now += log.cycles.back().Total();
    ProcessNewCycles(t, /*wait_for_last=*/0);
  }

  // Runs one admitted epoch: members' mark/forward/adjust phases interleave,
  // the shared shootdown lands at the adjust/compact boundary, then the
  // compact phases run with the members' own prologue flushes coalesced.
  void RunEpoch(std::vector<unsigned> members) {
    std::sort(members.begin(), members.end());
    const unsigned running = CountRunnable();
    const unsigned gang = config_.run.gc_threads;
    // Streams during the epoch: still-runnable mutators, the *other*
    // members' GC gangs, and the member's own (stalled) mutator slot. The
    // member's own gang is added by its compact step, mirroring InlineGc.
    machine_.SetActiveMemoryStreams(
        running + static_cast<unsigned>(members.size() - 1) * gang + 1);

    for (const unsigned id : members) {
      TenantState& t = tenants_[id];
      t.engine().BeginCycle(*t.bundle.jvm);
    }
    // Round-robin quanta until every member sits at its relocation boundary
    // (for ParallelLisp2 this is exactly the original three interleaved
    // rounds: mark, forward, adjust). The shared shootdown then covers all
    // members' relocation work at once.
    bool any_prefix = true;
    while (any_prefix) {
      any_prefix = false;
      for (const unsigned id : members) {
        gc::CollectorBase& engine = tenants_[id].engine();
        if (engine.cycle_active() && !engine.at_relocation_boundary()) {
          engine.StepPhase();
          any_prefix = true;
        }
      }
    }
    arbiter_.BroadcastEpochFlush(members);
    double span = 0;  // members run concurrently: the epoch lasts as long
                      // as its slowest cycle
    for (const unsigned id : members) {
      TenantState& t = tenants_[id];
      t.engine().FinishCycle();  // relocation onward; logs the cycle
      const rt::GcLog& log = t.bundle.jvm->collector().log();
      const double pause = log.cycles.back().Total();
      span = std::max(span, pause);
      t.local_now += pause;
      ProcessNewCycles(t, /*wait_for_last=*/t.wait_pending);
      t.wait_pending = 0;
      t.awaiting = false;
    }
    arbiter_.EndEpoch(members);
    // Requests still queued waited this epoch out (epochs within a round
    // run back to back, so the wait is real serialization, not an artifact).
    for (TenantState& t : tenants_) {
      if (t.awaiting) {
        t.wait_pending += span;
        t.local_now += span;
      }
    }
    machine_.SetActiveMemoryStreams(std::max(1u, CountRunnable()));
  }

  // Executes up to ops_burst due operations for one tenant; returns modeled
  // busy cycles spent. Stops early when the tenant stalls for GC admission.
  double RunBurst(TenantState& t) {
    double spent = 0;
    unsigned ran = 0;
    while (t.runnable() && ran < config_.ops_burst) {
      if (t.local_now < t.next_arrival) {
        if (ran > 0) break;
        t.local_now = t.next_arrival;  // idle until the next op arrives
      }
      const double before = BusyCycles(t);
      t.bundle.workload->Iterate(*t.bundle.jvm);
      const double delta = BusyCycles(t) - before;
      t.local_now += delta;
      spent += delta;
      ++t.ops_done;
      ++ran;
      t.next_arrival += NextGap(t);
      // Any cycle logged during the op itself is an emergency (allocation
      // failure collected inside Jvm::New, bypassing the arbiter).
      const std::size_t emergencies = ProcessNewCycles(t, 0);
      if (emergencies > 0) {
        t.emergencies += emergencies;
        machine_.metrics().counter("fleet.emergency_gcs").Add(emergencies);
      }
      if (!t.done() && UnderPressure(t)) {
        if (arbiter_.config().enabled()) {
          arbiter_.RequestGc(t.id);
          t.awaiting = true;
        } else {
          InlineGc(t);
        }
      }
    }
    return spent;
  }

  const FleetConfig& config_;
  const sim::CostProfile& profile_;
  sim::Machine machine_;
  sim::Kernel kernel_;
  Arbiter arbiter_;
  const double slo_cycles_;
  // Declared before tenants_: the JVMs hold references into the physical
  // memory, so it must outlive them (destruction runs in reverse order).
  std::unique_ptr<sim::PhysicalMemory> phys_;
  std::vector<TenantState> tenants_;
  // Round-windowed inline-GC activity (arbiter-off contention model).
  unsigned inline_gcs_this_round_ = 0;
  unsigned inline_gcs_last_round_ = 0;
};

FleetResult FleetRun::Run() {
  SVAGC_CHECK(config_.tenants >= 1);
  machine_.set_tracer(config_.run.trace_recorder != nullptr
                          ? config_.run.trace_recorder
                          : telemetry::EnvTraceRecorder());
  if (config_.fault_hook != nullptr) kernel_.set_fault_hook(config_.fault_hook);

  auto probe = workloads::MakeWorkload(config_.run.workload);
  SVAGC_CHECK(probe != nullptr);
  const std::uint64_t heap_bytes = static_cast<std::uint64_t>(
      static_cast<double>(probe->info().min_heap_bytes) *
      config_.run.heap_factor);
  phys_ = std::make_unique<sim::PhysicalMemory>((heap_bytes + (8ULL << 20)) *
                                                config_.tenants);

  const bool arbitrated = config_.arbiter.enabled();
  tenants_.resize(config_.tenants);
  for (unsigned j = 0; j < config_.tenants; ++j) {
    TenantState& t = tenants_[j];
    t.id = j;
    const unsigned mutator_core = j % config_.run.machine_cores;
    const unsigned gc_first_core =
        (j * config_.run.gc_threads) % config_.run.machine_cores;
    t.bundle = workloads::MakeTenant(config_.run, machine_, *phys_, kernel_,
                                     /*tenant=*/j, mutator_core, gc_first_core,
                                     (1ULL << 32) + j * (1ULL << 36));
    if (auto* svagc =
            dynamic_cast<core::SvagcCollector*>(&t.bundle.jvm->collector());
        svagc != nullptr && config_.arbiter.batch_shootdowns) {
      svagc->set_epoch_flush_coordinator(&arbiter_);
    }
    const unsigned id = arbiter_.AddTenant(&t.bundle.jvm->address_space());
    SVAGC_CHECK(id == j);
    t.arrivals = Rng(config_.arrival_seed + (j + 1) * kGolden);
    t.gap_mean = config_.arrival_interval_ms * machine_.cost().ghz * 1e6;
    t.bundle.workload->Setup(*t.bundle.jvm);
    t.ops_total = config_.run.iterations != 0
                      ? config_.run.iterations
                      : t.bundle.workload->default_iterations();
    t.next_arrival = NextGap(t);
  }

  machine_.SetActiveMemoryStreams(std::max(1u, CountRunnable()));

  // Round-based open-loop scheduler: each round gives every runnable tenant
  // one burst, accrues queue wait for tenants that spent the whole round
  // stalled, then lets the arbiter form an epoch.
  while (true) {
    bool all_done = true;
    for (const TenantState& t : tenants_) all_done &= t.done();
    if (all_done) break;

    machine_.SetActiveMemoryStreams(std::max(1u, CountRunnable()));
    inline_gcs_last_round_ = inline_gcs_this_round_;
    inline_gcs_this_round_ = 0;
    std::vector<bool> was_awaiting(tenants_.size());
    for (const TenantState& t : tenants_) was_awaiting[t.id] = t.awaiting;

    double round_cost = 0;
    unsigned round_ran = 0;
    for (TenantState& t : tenants_) {
      if (!t.runnable()) continue;
      round_cost += RunBurst(t);
      ++round_ran;
    }

    // Tenants that were already queued when the round began waited through
    // it. (A tenant that enqueued mid-round has not waited yet — this keeps
    // a fleet of one bit-identical to the uncoordinated run: its request is
    // always admitted in the same round it was made, with zero wait.)
    const double advance = round_ran > 0 ? round_cost / round_ran : 0;
    for (TenantState& t : tenants_) {
      if (t.awaiting && was_awaiting[t.id]) {
        t.wait_pending += advance;
        t.local_now += advance;
      }
    }

    if (arbitrated) {
      arbiter_.AgePending();
      // Drain as many epochs as the queue yields; admission control limits
      // *concurrency* (epoch size), not the number of sequential epochs a
      // round can host. When nothing could run, only serving the queue makes
      // progress, so admission is forced.
      while (true) {
        const std::vector<unsigned> members =
            arbiter_.FormEpoch(/*force=*/round_ran == 0);
        if (members.empty()) break;
        RunEpoch(members);
      }
    }
  }

  FleetResult result;
  result.tenants.reserve(tenants_.size());
  for (TenantState& t : tenants_) {
    workloads::RunResult r =
        workloads::HarvestTenant(config_.run, machine_, t.bundle, t.ops_done);
    if (config_.digest_heaps) {
      r.heap_digest = HashHeapDigest(verify::DigestHeap(*t.bundle.jvm));
    }
    r.gc_wait_cycles = t.wait_total;
    r.gc_wait_max_cycles = t.wait_max;
    r.observed_pause_max_cycles = t.observed_max;
    r.slo_violations = t.violations;
    r.slo_budget_cycles = slo_cycles_;
    r.emergency_gcs = t.emergencies;
    result.slo_violations += t.violations;
    result.worst_observed_pause_cycles =
        std::max(result.worst_observed_pause_cycles, t.observed_max);
    result.tenants.push_back(std::move(r));
  }
  const telemetry::MetricsRegistry& metrics = machine_.metrics();
  result.arbiter_cycles = arbiter_.cycles();
  result.epochs = metrics.CounterValue("fleet.epochs");
  result.epoch_broadcasts = metrics.CounterValue("fleet.epoch_broadcasts");
  result.broadcast_fallbacks =
      metrics.CounterValue("fleet.broadcast_fallbacks");
  result.solo_epochs = arbiter_.solo_epochs();
  result.max_epoch_size = arbiter_.max_epoch_size();
  result.max_waited_rounds = arbiter_.max_waited_rounds();
  result.ipis_sent = metrics.CounterValue("ipi.sent");
  result.ipi_broadcasts = metrics.CounterValue("ipi.broadcasts");
  result.emergency_gcs = metrics.CounterValue("fleet.emergency_gcs");
  result.total_disturbance_cycles =
      static_cast<double>(machine_.TotalDisturbanceCycles());
  return result;
}

}  // namespace

FleetResult RunFleet(const FleetConfig& config) {
  FleetRun run(config);
  return run.Run();
}

std::uint64_t HashHeapDigest(const verify::HeapDigest& digest) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  mix(digest.valid);
  mix(digest.top);
  for (const verify::DigestObject& obj : digest.objects) {
    mix(obj.addr);
    mix(obj.size);
    mix(obj.type_id);
    mix(obj.num_refs);
    for (const rt::vaddr_t ref : obj.refs) mix(ref);
    mix(obj.payload_hash);
  }
  for (const rt::vaddr_t root : digest.roots) mix(root);
  return hash;
}

ArbiterConfig ArbiterOff() { return ArbiterConfig{}; }

ArbiterConfig ArbiterBatch() {
  ArbiterConfig config;
  config.batch_shootdowns = true;
  return config;
}

ArbiterConfig ArbiterBatchAdmission(unsigned max_concurrent,
                                    double pause_budget_cycles) {
  ArbiterConfig config;
  config.batch_shootdowns = true;
  config.max_concurrent_gcs = max_concurrent;
  config.pause_budget_cycles = pause_budget_cycles;
  return config;
}

}  // namespace svagc::fleet
