// The simulated multi-core machine: cores with private TLBs, an IPI bus,
// and a shared memory-bandwidth saturation model.
//
// Thread <-> core binding is explicit: every executing context (a mutator,
// a GC worker) carries a CpuContext naming the simulated core it runs on.
// TLB shootdowns cross cores through SendTlbShootdown, which charges the
// sender per IPI and books "disturbance" cycles against each interrupted
// core — the quantity the multi-JVM scalability experiments measure.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "simkernel/cost_model.h"
#include "simkernel/tlb.h"
#include "simkernel/translation.h"
#include "support/check.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_recorder.h"

namespace svagc::sim {

class Machine;

// Execution context of one simulated hardware thread.
struct CpuContext {
  CpuContext(Machine& machine, unsigned core_id)
      : machine(&machine), core_id(core_id) {}

  Machine* machine;
  unsigned core_id;
  CycleAccount account;

  // Pin state maintained by Kernel::SysPin/SysUnpin. `pin_declared` latches
  // on the first successful pin: from then on, kLocalOnly swap calls from
  // this context are validated against `pinned` (legacy callers that never
  // pin keep the old trust-the-caller behavior).
  bool pinned = false;
  bool pin_declared = false;
};

class Machine {
 public:
  explicit Machine(
      unsigned num_cores, const CostProfile& profile,
      TranslationBackend translation = TranslationBackend::kRadix);

  unsigned num_cores() const { return num_cores_; }
  const CostProfile& cost() const { return profile_; }
  // Translation structure every AddressSpace on this machine instantiates.
  TranslationBackend translation_backend() const { return translation_; }

  Tlb& tlb(unsigned core_id) {
    SVAGC_DCHECK(core_id < num_cores_);
    return *tlbs_[core_id];
  }

  // flush_tlb_local: flush the caller's core TLB for one address space.
  void FlushLocalTlb(CpuContext& ctx, std::uint64_t asid);

  // flush_tlb_others/flush_tlb_all_cores: IPI every *other* online core and
  // flush its TLB for `asid`. Charges the sender ipi_send per target and
  // books ipi_handle cycles of disturbance on each target core.
  void SendTlbShootdown(CpuContext& ctx, std::uint64_t asid);

  // Single-page invalidation on every core, for far-tier evictions: after a
  // PTE flips to swapped, no TLB anywhere may keep the stale translation.
  // Charges the caller one tlb_flush_page per core. Deliberately NOT an IPI
  // round — evictions ride the fault path, not the SwapVA shootdown path,
  // so the paper's Eq. 2 IPI accounting (IPIs are a SwapVA/fleet quantity)
  // stays untouched; the modeled cost is the invlpg work itself. The far
  // tier, its only caller, counts these flushes ("tlb.page_flushes"). The
  // charge covers every core, but only the TLBs that cache `asid` (the
  // tenant's mutator and GC cores) scan a set on the host.
  void FlushPageAllCores(CpuContext& ctx, std::uint64_t asid,
                         std::uint64_t vpn);

  // Batched cross-process round: one IPI per remote core covering every asid
  // in `asids` (the fleet arbiter's epoch flush). The interrupt cost is paid
  // once per target core — that is the whole point of batching — while each
  // target still pays one local flush per asid it must invalidate. Counts as
  // a single entry in "ipi.broadcasts".
  void SendTlbShootdownMulti(CpuContext& ctx,
                             std::span<const std::uint64_t> asids);

  // Per-core disturbance ledger (cycles stolen from whatever ran there).
  std::uint64_t DisturbanceCycles(unsigned core_id) const {
    return disturbance_[core_id]->load(std::memory_order_relaxed);
  }
  std::uint64_t TotalDisturbanceCycles() const;
  void ResetCounters();

  // Machine-wide telemetry, the only tally of every kernel- and hardware-side
  // event total ("ipi.sent", "ipi.broadcasts", "tlb.local_flushes",
  // "swapva.calls", ...; see DESIGN.md section 8 for the full name schema).
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

  // Aggregates the per-core Tlb hit/miss/flush tallies into "tlb.hits",
  // "tlb.misses" and "tlb.asid_flushes" (Store semantics: call at harvest
  // time, idempotent).
  void PublishTlbMetrics();

  // Optional trace sink shared by every collector driving this machine.
  // Not owned; null means tracing is off.
  void set_tracer(telemetry::TraceRecorder* tracer) { tracer_ = tracer; }
  telemetry::TraceRecorder* tracer() const { return tracer_; }

  // Memory-bandwidth saturation: callers doing bulk copies scale their
  // per-byte cost by this factor. Benches set the number of concurrently
  // copy-active contexts (e.g. JVM count in the multi-JVM experiments).
  void SetActiveMemoryStreams(unsigned streams) {
    active_streams_.store(streams, std::memory_order_relaxed);
  }
  unsigned active_memory_streams() const {
    return active_streams_.load(std::memory_order_relaxed);
  }
  // Sublinear in the oversubscription ratio: memory-bound phases overlap
  // partially with compute and queueing is not perfectly serializing, so k
  // saturated streams slow each other by (k/sat)^0.75 rather than k/sat
  // (calibrated against the paper's Fig. 14: 32 single-threaded JVMs see
  // ~4.3x application slowdown on the 6-channel Xeon).
  double BandwidthContentionFactor() const {
    const double k = active_streams_.load(std::memory_order_relaxed);
    if (k <= profile_.saturation_streams) return 1.0;
    return std::pow(k / profile_.saturation_streams, 0.75);
  }

  // Monotonic address-space id allocator.
  std::uint64_t NextAsid() { return next_asid_.fetch_add(1); }

 private:
  const unsigned num_cores_;
  const CostProfile& profile_;
  const TranslationBackend translation_;
  std::vector<std::unique_ptr<Tlb>> tlbs_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> disturbance_;
  std::atomic<unsigned> active_streams_{1};
  std::atomic<std::uint64_t> next_asid_{1};
  telemetry::MetricsRegistry metrics_;
  // Bumped once per flush or per remote core, so resolved once here.
  telemetry::Counter& ctr_ipi_sent_;
  telemetry::Counter& ctr_ipi_broadcasts_;
  telemetry::Counter& ctr_local_flushes_;
  telemetry::TraceRecorder* tracer_ = nullptr;
};

}  // namespace svagc::sim
