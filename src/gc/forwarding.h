// Phase II (forwarding-address calculation, Algorithm 3's CALCNEWADD) and
// phase III (pointer adjustment) of the LISP2 family.
//
// Forwarding is the collectors' "summary" step. Two implementations produce
// bit-identical CompactionPlans:
//
//  * ComputeForwarding — the serial reference, one linear heap walk (the
//    shape of HotSpot ParallelGC's summary phase). Kept as the oracle the
//    parallel plan is verified against.
//  * ComputeForwardingParallel — a three-step region pipeline. Step 1
//    sweeps the MarkBitmap per region in parallel, reducing each region to
//    a tiny summary (small-object bytes before the first large object,
//    whether a large object occurs, and the entry-independent layout tail
//    after it). Step 2 is a serial exclusive prefix scan over those
//    summaries that fixes every region's destination base — O(regions),
//    regardless of heap size. Step 3 installs forwarding addresses and
//    emits per-region Move/filler/live lists in parallel, each region
//    starting from its precomputed base.
//
// Both produce the CompactionPlan consumed by the compaction phase,
// including the region dependency bounds that make parallel sliding
// compaction safe and the filler spans that keep the heap parsable.
#pragma once

#include "gc/collector.h"
#include "gc/mark_bitmap.h"
#include "runtime/jvm.h"

namespace svagc::gc {

inline constexpr std::uint64_t kDefaultRegionBytes = 64 * sim::kPageSize;

struct ForwardingResult {
  CompactionPlan plan;
  // Pre-compaction addresses of all live objects, ascending; the adjust
  // phase strides over this list.
  std::vector<rt::vaddr_t> live;
};

// Algorithm 3's CALCNEWADD for the live object [addr, addr + size): the one
// step behind ComputeForwarding, each region of ComputeForwardingParallel's
// install, the concurrent collector's plan walk and OptimizePlan. Places the
// object at `comp_pnt` by Heap::Place, appends both alignment gaps to
// `fillers`, writes the object's forwarding slot, files a Move in `plan`
// when the object moves (always, with `evacuate_all_live`), and advances
// `comp_pnt` past the placement. Charges nothing; each caller keeps its own
// charge schedule. Returns the destination.
rt::vaddr_t CalcNewAdd(rt::Heap& heap, rt::vaddr_t addr, std::uint64_t size,
                       bool evacuate_all_live, rt::vaddr_t& comp_pnt,
                       CompactionPlan& plan, FillerList& fillers);

// Walks the heap, runs CalcNewAdd on each live object, and accumulates the
// compaction plan. With `evacuate_all_live`, unmoved objects (dst == src)
// are still planned as moves — the cost shape of an evacuating collector.
ForwardingResult ComputeForwarding(rt::Jvm& jvm, const MarkBitmap& bitmap,
                                   sim::CpuContext& ctx, const GcCosts& costs,
                                   std::uint64_t region_bytes,
                                   bool evacuate_all_live = false);

// Parallel region-summary forwarding (see file comment). Runs the two
// parallel steps on the collector's worker gang and the prefix scan on
// worker 0; the plan (and every object's forwarding slot) is bit-identical
// to ComputeForwarding's. `critical_path`, if non-null, receives the phase's
// modeled pause: parallel-step critical paths plus the serial scan.
ForwardingResult ComputeForwardingParallel(rt::Jvm& jvm,
                                           const MarkBitmap& bitmap,
                                           CollectorBase& collector,
                                           std::uint64_t region_bytes,
                                           bool evacuate_all_live = false,
                                           double* critical_path = nullptr);

// Phase III worker body: rewrites the reference slots of live objects
// live[worker], live[worker+stride], ... to the targets' forwarding
// addresses. Worker 0 additionally rewrites the roots.
void AdjustReferences(rt::Jvm& jvm, const std::vector<rt::vaddr_t>& live,
                      sim::CpuContext& ctx, const GcCosts& costs,
                      unsigned worker, unsigned stride);

}  // namespace svagc::gc
