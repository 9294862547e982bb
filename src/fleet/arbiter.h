// Fleet swap/shootdown arbiter: the kernel-side coordinator for N collector
// tenants sharing one Machine.
//
// Three cooperating mechanisms (each independently switchable, so the fig20
// ablation can isolate their contributions):
//
//   1. Batched cross-process shootdowns. Uncoordinated SVAGC tenants each
//      issue their own up-front process-wide shootdown (Algorithm 4 line 2),
//      so K concurrent cycles cost K broadcasts = K*(cores-1) IPIs. The
//      arbiter groups concurrently admitted cycles into an *epoch* and
//      replaces the members' individual broadcasts with one multi-ASID IPI
//      round (Kernel::SysFlushFleetTlbs): remote cores pay one interrupt and
//      flush every member's ASID while they are down. The broadcast is
//      issued at the adjust/compact boundary — after every member's mark/
//      forward/adjust phases (which repopulate worker TLBs) and before any
//      member moves an object — so the TLB-coherence invariant that the
//      per-tenant prologue flush provides is preserved exactly.
//
//   2. GC admission control. At most `max_concurrent_gcs` tenants run the
//      swap-heavy phase concurrently; the rest queue. Waiting requests age
//      (priority += aging_weight per round) so admission is starvation-free:
//      the waited-longest request always reaches the front, and
//      `max_wait_rounds` bounds how long the arbiter holds a partial batch
//      open fishing for co-admittable cycles.
//
//   3. Pause-budget scheduling. Telemetry feeds each tenant's observed pause
//      (queue wait + STW pause) back to the arbiter; a tenant whose last
//      observed pause blew its budget is admitted *solo*, trading the shared
//      broadcast for the memory-bandwidth headroom that shortens its pause.
//
// The arbiter is also the core::EpochFlushCoordinator the tenants' SVAGC
// collectors consult in their compaction prologue: membership in a
// broadcast-covered epoch lets a collector skip its own process-wide
// shootdown (counted as gc.flushes_coalesced).
#pragma once

#include <cstdint>
#include <vector>

#include "core/svagc_collector.h"
#include "simkernel/swapva.h"

namespace svagc::fleet {

struct ArbiterConfig {
  // Mechanism 1: share one multi-ASID IPI round per epoch. Epochs with a
  // single member keep the tenant's own process flush (so a fleet of one is
  // bit-identical to an uncoordinated run — proven in fleet_test.cc).
  bool batch_shootdowns = false;

  // Mechanism 2: at most this many tenants in the swap-heavy phase per
  // epoch. 0 = unlimited (every pending request is co-admitted).
  unsigned max_concurrent_gcs = 0;

  // Form an epoch once the oldest pending request has waited this many
  // arbiter rounds even if the batch is not full; bounds queue wait. One
  // round is already a full burst of mutator work, so holding a partial
  // batch longer trades more observed pause than the shared broadcast saves.
  unsigned max_wait_rounds = 1;

  // Priority gained per waited round (starvation-freedom knob).
  double aging_weight = 1.0;

  // Mechanism 3: observed-pause budget in modeled cycles; 0 disables.
  // A tenant over budget is admitted alone at the head of the queue.
  double pause_budget_cycles = 0;

  // Minimum pending requests before a batch forms when admission control is
  // off (with it on, the target is max_concurrent_gcs). Two is the smallest
  // batch that amortizes anything.
  unsigned min_batch = 2;

  bool enabled() const { return batch_shootdowns || max_concurrent_gcs > 0; }
};

class Arbiter final : public core::EpochFlushCoordinator {
 public:
  // The arbiter's own kernel work (syscall entry, IPI sends) is charged to a
  // CpuContext on `core` — by convention the last machine core, away from
  // the tenants' mutator cores.
  Arbiter(sim::Kernel& kernel, const ArbiterConfig& config, unsigned core);

  // Registration order defines tenant ids (0-based, dense).
  unsigned AddTenant(sim::AddressSpace* as);

  // --- admission queue ------------------------------------------------------
  void RequestGc(unsigned tenant);
  bool HasPending(unsigned tenant) const { return slots_[tenant].pending; }
  // One arbiter round elapsed with requests still queued: age them.
  void AgePending();

  // Picks the members of the next epoch (empty = keep batching). `force`
  // admits whatever is pending regardless of batch targets — the runner sets
  // it when every runnable tenant is stalled awaiting GC, so holding the
  // queue open can only add wait.
  std::vector<unsigned> FormEpoch(bool force);

  // --- epoch lifecycle ------------------------------------------------------
  // Issues the shared multi-ASID shootdown for `members` (>= 2 and batching
  // on; otherwise a no-op and members flush for themselves). On an injected
  // broadcast drop (FaultPoint::kDropEpochBroadcast) falls back to one
  // process-wide flush per member — correctness never depends on the batch.
  void BroadcastEpochFlush(const std::vector<unsigned>& members);
  // Clears any unconsumed broadcast coverage. Call after the last member's
  // compact step; coverage must never leak into a later cycle.
  void EndEpoch(const std::vector<unsigned>& members);

  // Telemetry feedback: the tenant's latest observed pause (wait + STW).
  void RecordObservedPause(unsigned tenant, double cycles);

  // core::EpochFlushCoordinator — consulted by SvagcCollector's compaction
  // prologue; true exactly once per covered ASID per epoch.
  bool ConsumeEpochFlush(std::uint64_t asid) override;

  // --- introspection --------------------------------------------------------
  const ArbiterConfig& config() const { return config_; }
  double cycles() const { return ctx_.account.total(); }
  unsigned waited_rounds(unsigned tenant) const {
    return slots_[tenant].waited_rounds;
  }
  // Epoch, admission and broadcast totals live in the machine registry
  // ("fleet.epochs", "fleet.gc_admitted", "fleet.epoch_broadcasts",
  // "fleet.broadcast_fallbacks"); these have no registry counter.
  std::uint64_t solo_epochs() const { return solo_epochs_; }
  std::uint64_t max_epoch_size() const { return max_epoch_size_; }
  std::uint64_t max_waited_rounds() const { return max_waited_rounds_; }

 private:
  struct TenantSlot {
    sim::AddressSpace* as = nullptr;
    bool pending = false;
    unsigned waited_rounds = 0;
    double last_observed_pause = 0;
  };

  double Priority(const TenantSlot& slot) const;

  sim::Kernel& kernel_;
  ArbiterConfig config_;
  sim::CpuContext ctx_;
  std::vector<TenantSlot> slots_;
  // ASIDs covered by the current epoch's shared broadcast; single-use.
  std::vector<std::uint64_t> covered_;

  std::uint64_t solo_epochs_ = 0;
  std::uint64_t max_epoch_size_ = 0;
  std::uint64_t max_waited_rounds_ = 0;
};

}  // namespace svagc::fleet
