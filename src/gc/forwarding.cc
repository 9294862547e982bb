#include "gc/forwarding.h"

namespace svagc::gc {

rt::vaddr_t CalcNewAdd(rt::Heap& heap, rt::vaddr_t addr, std::uint64_t size,
                       bool evacuate_all_live, rt::vaddr_t& comp_pnt,
                       CompactionPlan& plan, FillerList& fillers) {
  const rt::Heap::Placement place = heap.Place(size, comp_pnt);
  if (place.dst > comp_pnt) {
    fillers.emplace_back(comp_pnt, place.dst - comp_pnt);
  }
  rt::ObjectView(heap.address_space(), addr).set_forwarding(place.dst);
  if (place.dst != addr || evacuate_all_live) {
    SVAGC_DCHECK(place.dst <= addr);  // sliding compaction only moves left
    plan.AddMove(Move{addr, place.dst, size, heap.IsLargeObject(size)});
  }
  const rt::vaddr_t end = place.dst + size;
  if (place.next > end) fillers.emplace_back(end, place.next - end);
  comp_pnt = place.next;
  return place.dst;
}

ForwardingResult ComputeForwarding(rt::Jvm& jvm, const MarkBitmap& bitmap,
                                   sim::CpuContext& ctx, const GcCosts& costs,
                                   std::uint64_t region_bytes,
                                   bool evacuate_all_live) {
  rt::Heap& heap = jvm.heap();
  ForwardingResult result{CompactionPlan(heap, region_bytes), {}};
  CompactionPlan& plan = result.plan;

  // Linear sweep over the whole used heap (phase II touches every header).
  ctx.account.Charge(
      sim::CostKind::kCompute,
      costs.heap_scan_per_byte * static_cast<double>(heap.used()));

  rt::vaddr_t comp_pnt = heap.base();
  heap.ForEachObject([&](rt::vaddr_t addr, std::uint64_t size) {
    if (!bitmap.IsMarked(addr)) return;  // garbage: skipped, space reclaimed
    ctx.account.Charge(sim::CostKind::kCompute, costs.forward_obj);
    CalcNewAdd(heap, addr, size, evacuate_all_live, comp_pnt, plan,
               plan.fillers);
    result.live.push_back(addr);
    ++plan.live_objects;
    plan.live_bytes += size;
  });
  plan.new_top = comp_pnt;
  return result;
}

namespace {

// Step-1 reduction of one region. The destination layout of a region's live
// objects depends on the region's (unknown) destination base only *until*
// the first aligned object: small objects pack with no alignment, and the
// first aligned object lands at AlignUp(entry + s0, align1). Alignments no
// coarser than the base's own alignment commute with adding the base, so
// after a 2 MiB-aligned jump the whole remaining layout is entry-independent.
// The one wrinkle is a 4 KiB first jump followed later by a huge object: the
// 2 MiB alignment does NOT commute with a base that is only page-aligned, so
// the summary records the layout bytes up to that second jump (`mid`) and
// the remainder relative to the 2 MiB-aligned second base (`tail`). Two
// jumps suffice — there is no coarser class than 2 MiB. This is what keeps
// the O(regions) prefix scan able to reproduce Algorithm 3's address
// assignment exactly, huge class included.
struct RegionSummary {
  std::uint64_t small_prefix = 0;  // live bytes before the first aligned object
  std::uint64_t align1 = 0;  // 0 = none; else kPageSize or kHugePageSize
  bool has_second = false;   // 2 MiB jump after a 4 KiB first jump
  std::uint64_t mid = 0;     // layout bytes from the first base to that jump
  std::uint64_t tail = 0;    // layout bytes after the final base
  std::uint64_t live_objects = 0;
  std::uint64_t live_bytes = 0;
};

}  // namespace

ForwardingResult ComputeForwardingParallel(rt::Jvm& jvm,
                                           const MarkBitmap& bitmap,
                                           CollectorBase& collector,
                                           std::uint64_t region_bytes,
                                           bool evacuate_all_live,
                                           double* critical_path) {
  rt::Heap& heap = jvm.heap();
  sim::AddressSpace& as = jvm.address_space();
  const GcCosts& costs = collector.costs();
  ForwardingResult result{CompactionPlan(heap, region_bytes), {}};
  CompactionPlan& plan = result.plan;

  const rt::vaddr_t base = heap.base();
  const rt::vaddr_t top = heap.top();
  const std::uint64_t used_regions = CeilDiv(top - base, region_bytes);
  const unsigned stride = collector.gc_threads();
  double cp = 0;

  auto region_begin = [&](std::uint64_t r) { return base + r * region_bytes; };
  auto region_end = [&](std::uint64_t r) {
    return std::min<rt::vaddr_t>(base + (r + 1) * region_bytes, top);
  };

  // Step 1: parallel per-region summary sweep over the mark bitmap. Regions
  // are assigned round-robin (worker w takes w, w+stride, ...): live data
  // clusters at the low end of the heap after previous compactions, so
  // striding spreads the dense regions across workers where contiguous
  // blocks would hand them all to worker 0. The assignment is a pure
  // function of (region, stride) — deterministic on any host.
  std::vector<RegionSummary> summaries(used_regions);
  cp += collector.RunParallelPhase([&](unsigned worker,
                                       sim::CpuContext& ctx) {
    for (std::uint64_t r = worker; r < used_regions; r += stride) {
      const rt::vaddr_t lo = region_begin(r);
      const rt::vaddr_t hi = region_end(r);
      ctx.account.Charge(sim::CostKind::kCompute,
                         costs.heap_scan_per_byte *
                             static_cast<double>(hi - lo));
      RegionSummary& s = summaries[r];
      // 0 = no aligned object yet; 1 = relative to a 4 KiB-aligned base;
      // 2 = relative to a 2 MiB-aligned base (everything commutes).
      int level = 0;
      std::uint64_t off = 0;  // layout offset past the current base
      bitmap.ForEachMarkedInRange(lo, hi, [&](rt::vaddr_t addr) {
        ctx.account.Charge(sim::CostKind::kCompute, costs.forward_summary_obj);
        const std::uint64_t size = rt::ObjectView(as, addr).size();
        ++s.live_objects;
        s.live_bytes += size;
        const bool huge = heap.IsHugeObject(size);
        const bool large = heap.IsLargeObject(size);
        const std::uint64_t grain = huge ? sim::kHugePageSize : sim::kPageSize;
        if (level == 0) {
          if (large) {
            // The first aligned object sits at offset 0 of the new base
            // (its destination is the aligned base itself); post-align.
            s.align1 = grain;
            off = AlignUp(size, grain);
            level = huge ? 2 : 1;
          } else {
            s.small_prefix += size;
          }
        } else if (level == 1 && huge) {
          // Second jump: a 2 MiB alignment relative to a base that is only
          // page-aligned does not commute — defer it to the prefix scan.
          s.has_second = true;
          s.mid = off;
          off = AlignUp(size, grain);
          level = 2;
        } else {
          // Offsets are relative to a base at least as aligned as `grain`,
          // so the layout rule commutes with adding the base.
          const std::uint64_t dst_off = large ? AlignUp(off, grain) : off;
          off = dst_off + size;
          if (large) off = AlignUp(off, grain);
        }
      });
      s.tail = off;
    }
  });

  // Step 2: serial exclusive prefix scan — each region's destination base is
  // the previous region's layout exit. O(regions) arithmetic, the only
  // serial residue of the phase.
  std::vector<rt::vaddr_t> entries(used_regions + 1);
  cp += collector.RunSerialPhase([&](sim::CpuContext& ctx) {
    rt::vaddr_t entry = base;
    for (std::uint64_t r = 0; r < used_regions; ++r) {
      ctx.account.Charge(sim::CostKind::kCompute, costs.forward_region);
      entries[r] = entry;
      const RegionSummary& s = summaries[r];
      if (s.align1 == 0) {
        entry += s.small_prefix;
      } else {
        rt::vaddr_t jump = AlignUp(entry + s.small_prefix, s.align1);
        if (s.has_second) {
          jump = AlignUp(jump + s.mid, sim::kHugePageSize);
        }
        entry = jump + s.tail;
      }
      plan.live_objects += s.live_objects;
      plan.live_bytes += s.live_bytes;
    }
    entries[used_regions] = entry;
    plan.new_top = entry;
  });

  // Step 3: parallel install — every region runs CalcNewAdd from its
  // precomputed base, writing forwarding slots and emitting its own live,
  // filler and move lists. Same strided assignment as step 1.
  std::vector<std::vector<rt::vaddr_t>> live_by_region(used_regions);
  std::vector<FillerList> fillers_by_region(used_regions);
  cp += collector.RunParallelPhase([&](unsigned worker,
                                       sim::CpuContext& ctx) {
    for (std::uint64_t r = worker; r < used_regions; r += stride) {
      const rt::vaddr_t lo = region_begin(r);
      const rt::vaddr_t hi = region_end(r);
      ctx.account.Charge(sim::CostKind::kCompute,
                         costs.heap_scan_per_byte *
                             static_cast<double>(hi - lo));
      rt::vaddr_t comp_pnt = entries[r];
      bitmap.ForEachMarkedInRange(lo, hi, [&](rt::vaddr_t addr) {
        ctx.account.Charge(sim::CostKind::kCompute, costs.forward_obj);
        const std::uint64_t size = rt::ObjectView(as, addr).size();
        CalcNewAdd(heap, addr, size, evacuate_all_live, comp_pnt, plan,
                   fillers_by_region[r]);
        live_by_region[r].push_back(addr);
      });
      // The replayed layout must land exactly on the next region's entry —
      // the prefix scan and the install pass agree or the plan is corrupt.
      SVAGC_DCHECK(comp_pnt == entries[r + 1]);
    }
  });

  // Stitch the per-region lists into the serial plan shape (region-ascending
  // order, which is the order the serial walk emits).
  cp += collector.RunSerialPhase([&](sim::CpuContext& ctx) {
    result.live.reserve(plan.live_objects);
    ctx.account.Charge(sim::CostKind::kCompute,
                       costs.heap_scan_per_byte * 8.0 *
                           static_cast<double>(plan.live_objects));
    for (std::uint64_t r = 0; r < used_regions; ++r) {
      result.live.insert(result.live.end(), live_by_region[r].begin(),
                         live_by_region[r].end());
      plan.fillers.insert(plan.fillers.end(), fillers_by_region[r].begin(),
                          fillers_by_region[r].end());
    }
  });

  if (critical_path != nullptr) *critical_path = cp;
  return result;
}

void AdjustReferences(rt::Jvm& jvm, const std::vector<rt::vaddr_t>& live,
                      sim::CpuContext& ctx, const GcCosts& costs,
                      unsigned worker, unsigned stride) {
  sim::AddressSpace& as = jvm.address_space();
  // Each worker sweeps its share of the linear scan.
  ctx.account.Charge(sim::CostKind::kCompute,
                     costs.heap_scan_per_byte *
                         static_cast<double>(jvm.heap().used()) / stride);
  for (std::size_t i = worker; i < live.size(); i += stride) {
    rt::ObjectView view(as, live[i]);
    ctx.account.Charge(sim::CostKind::kCompute, costs.adjust_obj);
    const std::uint32_t refs = view.num_refs();
    for (std::uint32_t r = 0; r < refs; ++r) {
      ctx.account.Charge(sim::CostKind::kCompute, costs.adjust_ref);
      const rt::vaddr_t target = view.ref(r);
      if (target == 0) continue;
      const rt::vaddr_t fwd = rt::ObjectView(as, target).forwarding();
      SVAGC_DCHECK(fwd != 0);
      view.set_ref(r, fwd);
    }
  }
  if (worker == 0) {
    jvm.roots().ForEachSlot([&](rt::vaddr_t& slot) {
      ctx.account.Charge(sim::CostKind::kCompute, costs.root_slot);
      slot = rt::ObjectView(as, slot).forwarding();
      SVAGC_DCHECK(slot != 0);
    });
  }
}

}  // namespace svagc::gc
