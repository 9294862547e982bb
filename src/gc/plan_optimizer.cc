#include "gc/plan_optimizer.h"

#include <algorithm>

namespace svagc::gc {

namespace {

// Per-page marginal cost of one disjoint SwapVA page: two PMD-cached table
// walks (src + dst), two leaf PTE reads, two split-PTL lock pairs, one entry
// exchange. Mirrors the simkernel's SysSwapVa charge structure exactly.
double SwapPerPageCycles(const sim::CostProfile& cost) {
  return 2 * cost.pagetable_access + 2 * cost.pte_access +
         2 * cost.pte_lock_pair + cost.pte_update;
}

// Per-call fixed cost: syscall round trip + the end-of-call local flush.
double SwapFixedCycles(const sim::CostProfile& cost) {
  return cost.syscall_entry + cost.tlb_flush_local;
}

}  // namespace

std::uint64_t ChooseSwapThresholdPages(const sim::CostProfile& cost,
                                       std::uint64_t last_cycle_moved_bytes) {
  const double per_page_swap = SwapPerPageCycles(cost);
  const double fixed = SwapFixedCycles(cost);
  const double per_page_copy =
      static_cast<double>(sim::kPageSize) *
      cost.CopyCyclesPerByte(last_cycle_moved_bytes);
  const double margin = per_page_copy - per_page_swap;
  if (margin <= 0) return 64;  // copy never loses on this profile
  // Smallest page count strictly past break-even: fixed < pages * margin.
  const std::uint64_t pages =
      static_cast<std::uint64_t>(fixed / margin) + 1;
  return std::clamp<std::uint64_t>(pages, 1, 64);
}

PlanOptimizerStats OptimizePlan(rt::Jvm& jvm, ForwardingResult& fwd,
                                const PlanOptimizerConfig& config,
                                std::uint64_t threshold_pages,
                                sim::CpuContext& ctx, const GcCosts& costs,
                                const sim::CostProfile& profile,
                                bool evacuate_all_live) {
  PlanOptimizerStats stats;
  stats.threshold_pages = threshold_pages;
  // Adaptive-only runs change the mover's dispatch decision, not the plan.
  if (!config.coalesce_runs && !config.dense_prefix) return stats;

  rt::Heap& heap = jvm.heap();
  sim::AddressSpace& as = jvm.address_space();
  const std::size_t n = fwd.live.size();
  const rt::vaddr_t base = heap.base();

  // Scan pass: cache every live object's size (one header read each).
  std::vector<std::uint64_t> sizes(n);
  ctx.account.Charge(sim::CostKind::kCompute,
                     costs.plan_obj * static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = rt::ObjectView(as, fwd.live[i]).size();
  }

  // Dense-prefix selection: the largest prefix (evaluated at source-region
  // transitions, plus the whole heap) whose modeled move cost is at or past
  // break-even against reclaiming its garbage at the DRAM copy rate, capped
  // by the dead-wood allowance. Meaningless for evacuating collectors, which
  // move every live object by policy.
  std::size_t pinned = 0;
  if (config.dense_prefix && !evacuate_all_live && n > 0) {
    ctx.account.Charge(sim::CostKind::kCompute,
                       costs.plan_obj * static_cast<double>(n));
    const double per_page_swap = SwapPerPageCycles(profile);
    const double fixed = SwapFixedCycles(profile);
    const double dram = profile.copy_per_byte_dram;
    const double dead_wood_cap =
        config.dense_prefix_dead_wood * static_cast<double>(heap.capacity());
    const std::uint64_t threshold_bytes = threshold_pages * sim::kPageSize;

    double move_cost = 0;             // modeled cost of moving objects [0, i)
    std::uint64_t live_prefix = 0;    // live bytes in [0, i)
    std::uint64_t prev_region = fwd.plan.RegionOf(fwd.live[0]);
    auto consider = [&](std::size_t i_end) {
      const rt::vaddr_t span_end = fwd.live[i_end - 1] + sizes[i_end - 1];
      const std::uint64_t garbage = (span_end - base) - live_prefix;
      if (static_cast<double>(garbage) > dead_wood_cap) return false;
      if (move_cost >=
          config.dense_prefix_gain * static_cast<double>(garbage) * dram) {
        pinned = i_end;
      }
      return true;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t region = fwd.plan.RegionOf(fwd.live[i]);
      if (region != prev_region) {
        if (!consider(i)) break;  // garbage is monotone in the prefix length
        prev_region = region;
      }
      const std::uint64_t size = sizes[i];
      move_cost += costs.move_dispatch;
      if (heap.IsLargeObject(size) && size >= threshold_bytes) {
        // Swappable: per-call worst case (aggregation only improves this).
        move_cost += fixed +
                     per_page_swap *
                         static_cast<double>(CeilDiv(size, sim::kPageSize));
      } else {
        move_cost += static_cast<double>(size) * dram;
      }
      live_prefix += size;
    }
    if (pinned < n) consider(n);
  }

  // Layout pass: re-run CALCNEWADD over the live list with the prefix pinned
  // and (optionally) small-object runs coalesced, into a fresh plan.
  // live_objects/live_bytes and fwd.live carry over (phase III still visits
  // pinned objects).
  CompactionPlan rebuilt(heap, fwd.plan.region_bytes);
  rebuilt.live_objects = fwd.plan.live_objects;
  rebuilt.live_bytes = fwd.plan.live_bytes;
  fwd.plan = std::move(rebuilt);
  CompactionPlan& plan = fwd.plan;
  ctx.account.Charge(sim::CostKind::kCompute,
                     costs.plan_obj * static_cast<double>(n));

  rt::vaddr_t comp_pnt = base;
  std::size_t i = 0;

  for (; i < pinned; ++i) {
    const rt::vaddr_t addr = fwd.live[i];
    // Garbage gaps inside the pinned prefix stay unreclaimed: filler.
    if (addr > comp_pnt) plan.fillers.emplace_back(comp_pnt, addr - comp_pnt);
    // A live object already obeys the layout rule where it sits, so the step
    // keeps it in place (no move) and still post-aligns a large one.
    comp_pnt = addr;
    CalcNewAdd(heap, addr, sizes[i], /*evacuate_all_live=*/false, comp_pnt,
               plan, plan.fillers);
  }
  stats.dense_prefix_objects = pinned;
  stats.dense_prefix_bytes = comp_pnt - base;

  while (i < n) {
    const rt::vaddr_t addr = fwd.live[i];
    const std::uint64_t size = sizes[i];
    const bool large = heap.IsLargeObject(size);

    if (config.coalesce_runs && !large) {
      // Gather the maximal source-adjacent span of small live objects. No
      // garbage gaps inside: each member starts exactly at the previous
      // member's end, so the span is wholly covered by live bytes and the
      // merged move (one rigid slide) is content-exact.
      std::size_t j = i + 1;
      rt::vaddr_t end = addr + size;
      while (j < n && fwd.live[j] == end && !heap.IsLargeObject(sizes[j])) {
        end += sizes[j];
        ++j;
      }
      const std::uint64_t len = end - addr;
      const std::uint32_t count = static_cast<std::uint32_t>(j - i);
      rt::vaddr_t dst = comp_pnt;  // small objects pack with no alignment

      if (config.align_runs && dst < addr && !evacuate_all_live) {
        // Congruence padding: if the run's page-interior clears the swap
        // threshold, round the slide down to a page multiple (< one page of
        // filler) so the interior becomes SwapVA-eligible. A run whose whole
        // slide is below one page is pinned instead — the sub-page reclaim
        // cannot pay for moving the run at all.
        const rt::vaddr_t interior_lo = AlignUp(addr, sim::kPageSize);
        const rt::vaddr_t interior_hi = AlignDown(end, sim::kPageSize);
        if (interior_hi > interior_lo &&
            interior_hi - interior_lo >= threshold_pages * sim::kPageSize) {
          const rt::vaddr_t padded =
              addr - AlignDown(addr - dst, sim::kPageSize);
          if (padded > dst) {
            plan.fillers.emplace_back(dst, padded - dst);
            stats.align_pad_bytes += padded - dst;
            dst = padded;
            if (dst == addr) {
              ++stats.runs_elided;
            } else {
              ++stats.runs_aligned;
            }
          }
        }
      }

      // Members forward to packed offsets inside the run's destination.
      rt::vaddr_t off = dst;
      for (std::size_t k = i; k < j; ++k) {
        rt::ObjectView(as, fwd.live[k]).set_forwarding(off);
        off += sizes[k];
      }
      SVAGC_DCHECK(off == dst + len);

      if (dst != addr || evacuate_all_live) {
        SVAGC_DCHECK(dst <= addr);
        plan.AddMove(
            Move{addr, dst, len, /*large=*/false, /*run=*/true, count});
        if (count >= 2) {
          ++stats.runs_coalesced;
          stats.objects_in_runs += count;
          stats.run_lengths.push_back(count);
        }
      }
      comp_pnt = dst + len;
      i = j;
    } else {
      // Large objects, or coalescing off: the plain CALCNEWADD step.
      CalcNewAdd(heap, addr, size, evacuate_all_live, comp_pnt, plan,
                 plan.fillers);
      ++i;
    }
  }
  plan.new_top = comp_pnt;
  return stats;
}

}  // namespace svagc::gc
