// Minor-GC / concurrent-evacuation demonstrator (paper Table I, rows 2-3).
//
// SwapVA is not specific to sliding Full-GC compaction: any *copying* phase
// that evacuates page-aligned large survivors into a fresh space can swap
// instead of copy. This evacuator models exactly that primitive — a young
// space whose survivors are evacuated to a destination space:
//
//   * Minor (copying) mode      — survivors evacuated in one batch;
//     SwapVA + aggregation + PMD caching apply (Table I row 2). Source and
//     destination are disjoint spaces, so the overlap optimization cannot
//     apply — also per Table I.
//   * Concurrent (relocation) mode — each survivor is relocated by its own
//     independent call, as concurrent collectors do; aggregation therefore
//     does not apply (Table I row 3), which the ablation bench quantifies.
//
// It is deliberately a *primitive*, not a full generational collector. The
// evacuator takes the survivor list from the caller, which is the part
// SwapVA touches. The real generational front end lives in
// core/generational_collector.{h,cc}: it maintains a remembered set
// honestly through the rt::GcBarrier write barrier (old→young stores land
// in per-thread store buffers, drained at minor-GC start), traces
// survivors from roots + remembered set, and feeds them through this
// evacuator's kMinorBatch path. Tests and benches still drive the
// primitive directly to isolate Table I rows 2-3.
//
// Destinations follow the heap's layout rule (rt::Heap::Place), not the
// mover's swap threshold, so a caller that sizes its destination space by
// the same rule never overruns it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/move_object.h"
#include "runtime/jvm.h"

namespace svagc::core {

enum class EvacuationMode {
  kMinorBatch,       // Table I row 2: aggregation applies
  kConcurrentSolo,   // Table I row 3: one independent call per object
};

struct EvacuationResult {
  std::uint64_t objects = 0;
  std::uint64_t bytes = 0;
  rt::vaddr_t to_space_top = 0;
  // Old address -> new address, in input order.
  std::vector<std::pair<rt::vaddr_t, rt::vaddr_t>> relocations;
};

class MinorEvacuator {
 public:
  MinorEvacuator(rt::Jvm& jvm, const MoveObjectConfig& config)
      : jvm_(jvm), mover_(jvm, config) {}

  // Evacuates `survivors` (addresses of live young objects) into the
  // destination space starting at `to_space`, laid out by the heap's rule
  // (rt::Heap::Place), so large objects stay swappable afterwards on heaps
  // that align them and everything packs on heaps that do not. The
  // destination range must be mapped and disjoint from every survivor.
  // Does NOT rewrite references — the caller applies result.relocations
  // (mirroring how a scavenger's forwarding table is consumed).
  EvacuationResult Evacuate(const std::vector<rt::vaddr_t>& survivors,
                            rt::vaddr_t to_space, EvacuationMode mode,
                            sim::CpuContext& ctx);

  const MoveObjectStats& stats() const { return mover_.stats(); }

 private:
  rt::Jvm& jvm_;
  ObjectMover mover_;
};

}  // namespace svagc::core
