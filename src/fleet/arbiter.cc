#include "fleet/arbiter.h"

#include <algorithm>

#include "support/check.h"

namespace svagc::fleet {

Arbiter::Arbiter(sim::Kernel& kernel, const ArbiterConfig& config,
                 unsigned core)
    : kernel_(kernel), config_(config), ctx_(kernel.machine(), core) {
  SVAGC_CHECK(core < kernel.machine().num_cores());
}

unsigned Arbiter::AddTenant(sim::AddressSpace* as) {
  SVAGC_CHECK(as != nullptr);
  TenantSlot slot;
  slot.as = as;
  slots_.push_back(slot);
  return static_cast<unsigned>(slots_.size() - 1);
}

void Arbiter::RequestGc(unsigned tenant) {
  SVAGC_CHECK(tenant < slots_.size());
  TenantSlot& slot = slots_[tenant];
  SVAGC_CHECK(!slot.pending);
  slot.pending = true;
  slot.waited_rounds = 0;
}

void Arbiter::AgePending() {
  for (TenantSlot& slot : slots_) {
    if (!slot.pending) continue;
    ++slot.waited_rounds;
    max_waited_rounds_ =
        std::max<std::uint64_t>(max_waited_rounds_, slot.waited_rounds);
  }
}

double Arbiter::Priority(const TenantSlot& slot) const {
  double priority = slot.waited_rounds * config_.aging_weight;
  // An over-budget tenant outranks any amount of aging: it is about to be
  // admitted solo, and holding it behind a batch only deepens the violation.
  if (config_.pause_budget_cycles > 0 &&
      slot.last_observed_pause > config_.pause_budget_cycles) {
    priority += 1e18;
  }
  return priority;
}

std::vector<unsigned> Arbiter::FormEpoch(bool force) {
  std::vector<unsigned> pending;
  unsigned oldest = 0;
  for (unsigned id = 0; id < slots_.size(); ++id) {
    if (!slots_[id].pending) continue;
    pending.push_back(id);
    oldest = std::max(oldest, slots_[id].waited_rounds);
  }
  if (pending.empty()) return {};

  const unsigned target =
      config_.max_concurrent_gcs > 0 ? config_.max_concurrent_gcs
                                     : std::max(1u, config_.min_batch);
  if (!force && pending.size() < target && oldest < config_.max_wait_rounds) {
    return {};  // keep fishing for co-admittable cycles
  }

  // Waited-longest first (priority aging), tenant id as the deterministic
  // tie-break. stable_sort keeps equal-priority requests in id order.
  std::stable_sort(pending.begin(), pending.end(), [&](unsigned a, unsigned b) {
    const double pa = Priority(slots_[a]);
    const double pb = Priority(slots_[b]);
    if (pa != pb) return pa > pb;
    return a < b;
  });

  std::vector<unsigned> members(
      pending.begin(),
      pending.begin() +
          (config_.max_concurrent_gcs > 0
               ? std::min<std::size_t>(pending.size(),
                                       config_.max_concurrent_gcs)
               : pending.size()));

  // Pause-budget scheduling: if the head of the queue blew its budget, give
  // it the machine to itself.
  if (config_.pause_budget_cycles > 0 && members.size() > 1 &&
      slots_[members.front()].last_observed_pause >
          config_.pause_budget_cycles) {
    members.resize(1);
    ++solo_epochs_;
  }

  for (const unsigned id : members) slots_[id].pending = false;
  max_epoch_size_ = std::max<std::uint64_t>(max_epoch_size_, members.size());

  telemetry::MetricsRegistry& metrics = kernel_.machine().metrics();
  metrics.counter("fleet.epochs").Add();
  metrics.counter("fleet.gc_admitted").Add(members.size());
  return members;
}

void Arbiter::BroadcastEpochFlush(const std::vector<unsigned>& members) {
  SVAGC_CHECK(covered_.empty());
  if (!config_.batch_shootdowns || members.size() < 2) return;

  std::vector<sim::AddressSpace*> spaces;
  spaces.reserve(members.size());
  for (const unsigned id : members) spaces.push_back(slots_[id].as);

  const sim::SysStatus status = kernel_.SysFlushFleetTlbs(spaces, ctx_);
  if (status != sim::SysStatus::kOk) {
    // Injected broadcast drop: the batched IPI round never reached the
    // remote cores. Fall back to one ordinary process-wide shootdown per
    // member so every compacting tenant still starts TLB-coherent.
    kernel_.machine().metrics().counter("fleet.broadcast_fallbacks").Add();
    for (sim::AddressSpace* as : spaces) {
      kernel_.SysFlushProcessTlbs(*as, ctx_);
    }
  }
  // Covered either way: the shared round or the per-member fallback flushes
  // make each member's prologue shootdown redundant.
  kernel_.machine().metrics().counter("fleet.epoch_broadcasts").Add();
  for (const unsigned id : members) covered_.push_back(slots_[id].as->asid());
}

void Arbiter::EndEpoch(const std::vector<unsigned>& members) {
  (void)members;
  covered_.clear();
}

void Arbiter::RecordObservedPause(unsigned tenant, double cycles) {
  SVAGC_CHECK(tenant < slots_.size());
  slots_[tenant].last_observed_pause = cycles;
}

bool Arbiter::ConsumeEpochFlush(std::uint64_t asid) {
  const auto it = std::find(covered_.begin(), covered_.end(), asid);
  if (it == covered_.end()) return false;
  covered_.erase(it);
  kernel_.machine().metrics().counter("fleet.flushes_coalesced").Add();
  return true;
}

}  // namespace svagc::fleet
