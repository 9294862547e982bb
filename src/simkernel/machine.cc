#include "simkernel/machine.h"

namespace svagc::sim {

Machine::Machine(unsigned num_cores, const CostProfile& profile,
                 TranslationBackend translation)
    : num_cores_(num_cores),
      profile_(profile),
      translation_(translation),
      ctr_ipi_sent_(metrics_.counter("ipi.sent")),
      ctr_ipi_broadcasts_(metrics_.counter("ipi.broadcasts")),
      ctr_local_flushes_(metrics_.counter("tlb.local_flushes")) {
  SVAGC_CHECK(num_cores >= 1);
  tlbs_.reserve(num_cores);
  disturbance_.reserve(num_cores);
  for (unsigned i = 0; i < num_cores; ++i) {
    tlbs_.push_back(std::make_unique<Tlb>());
    disturbance_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
}

void Machine::FlushLocalTlb(CpuContext& ctx, std::uint64_t asid) {
  ctx.account.Charge(CostKind::kTlbFlushLocal, profile_.tlb_flush_local);
  ctr_local_flushes_.Add();
  tlb(ctx.core_id).FlushAsid(asid);
}

void Machine::SendTlbShootdown(CpuContext& ctx, std::uint64_t asid) {
  ctr_ipi_broadcasts_.Add();
  for (unsigned core = 0; core < num_cores_; ++core) {
    if (core == ctx.core_id) continue;
    ctx.account.Charge(CostKind::kIpi, profile_.ipi_send);
    ctr_ipi_sent_.Add();
    // The remote core takes the interrupt and flushes: both the handler cost
    // and the flush itself are stolen from whatever runs on that core.
    disturbance_[core]->fetch_add(
        static_cast<std::uint64_t>(profile_.ipi_handle +
                                   profile_.tlb_flush_local),
        std::memory_order_relaxed);
    tlb(core).FlushAsid(asid);
  }
}

void Machine::FlushPageAllCores(CpuContext& ctx, std::uint64_t asid,
                                std::uint64_t vpn) {
  ctx.account.Charge(CostKind::kTlbFlushPage,
                     profile_.tlb_flush_page * num_cores_);
  for (unsigned core = 0; core < num_cores_; ++core) {
    tlb(core).FlushPage(asid, vpn);
  }
}

void Machine::SendTlbShootdownMulti(CpuContext& ctx,
                                    std::span<const std::uint64_t> asids) {
  if (asids.empty()) return;
  ctr_ipi_broadcasts_.Add();
  for (unsigned core = 0; core < num_cores_; ++core) {
    if (core == ctx.core_id) continue;
    ctx.account.Charge(CostKind::kIpi, profile_.ipi_send);
    ctr_ipi_sent_.Add();
    // One interrupt, several address spaces: the handler cost amortizes
    // across the batch, the per-asid flushes do not.
    disturbance_[core]->fetch_add(
        static_cast<std::uint64_t>(
            profile_.ipi_handle +
            profile_.tlb_flush_local * static_cast<double>(asids.size())),
        std::memory_order_relaxed);
    for (const std::uint64_t asid : asids) tlb(core).FlushAsid(asid);
  }
}

std::uint64_t Machine::TotalDisturbanceCycles() const {
  std::uint64_t total = 0;
  for (const auto& cell : disturbance_) {
    total += cell->load(std::memory_order_relaxed);
  }
  return total;
}

void Machine::ResetCounters() {
  for (auto& cell : disturbance_) cell->store(0, std::memory_order_relaxed);
  metrics_.Reset();
}

void Machine::PublishTlbMetrics() {
  std::uint64_t hits = 0, misses = 0, flushes = 0;
  for (const auto& tlb : tlbs_) {
    hits += tlb->hits();
    misses += tlb->misses();
    flushes += tlb->flushes();
  }
  metrics_.counter("tlb.hits").Store(hits);
  metrics_.counter("tlb.misses").Store(misses);
  metrics_.counter("tlb.asid_flushes").Store(flushes);
}

}  // namespace svagc::sim
