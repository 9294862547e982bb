// Concurrent SVAGC with SwapVA evacuation: the gc-layer concurrent phase
// machine (src/gc/concurrent_svagc) with its relocation hooks bound to the
// paper's MOVEOBJECT dispatcher.
//
// The STW collector amortizes Algorithm 4's process-wide shootdown across a
// whole compaction phase; here mutators run *between* evacuation windows and
// repopulate their TLBs with entries for pages a later window will swap, so
// the shootdown becomes per-window: every EvacQuantumPrologue issues one
// flush (via the fleet-epoch multi-asid path, single-element batch, falling
// back to the plain process flush when the broadcast faults). One pinned
// evacuation worker does all moves — pin at the first window, unpin at the
// last; a refused pin degrades the whole cycle to per-call global shootdowns
// exactly like SvagcCollector.
#pragma once

#include <memory>

#include "core/move_object.h"
#include "gc/concurrent_svagc.h"

namespace svagc::core {

struct ConcurrentSvagcCoreConfig {
  MoveObjectConfig move;
  // Pin the evacuation worker across the whole evacuation phase (Algorithm 4
  // precondition for kLocalOnly flushing). Off = per-call global shootdowns.
  bool pinned_evacuation = true;
  gc::ConcurrentSvagcConfig concurrent;
};

class ConcurrentSvagcCollector : public gc::ConcurrentSvagc {
 public:
  ConcurrentSvagcCollector(sim::Machine& machine, unsigned gc_threads,
                           unsigned first_core,
                           const ConcurrentSvagcCoreConfig& config = {});
  ~ConcurrentSvagcCollector() override;

  const ConcurrentSvagcCoreConfig& core_config() const { return config_; }

 protected:
  void MoveOne(rt::Jvm& jvm, sim::CpuContext& ctx,
               const gc::Move& move) override;
  void FlushEvacBatch(rt::Jvm& jvm, sim::CpuContext& ctx) override;
  void EvacBegin(rt::Jvm& jvm, sim::CpuContext& ctx) override;
  void EvacQuantumPrologue(rt::Jvm& jvm, sim::CpuContext& ctx) override;
  void EvacEnd(rt::Jvm& jvm, sim::CpuContext& ctx) override;
  void CycleFlip(rt::Jvm& jvm, sim::CpuContext& ctx) override;

 private:
  ObjectMover& MoverFor(rt::Jvm& jvm);

  ConcurrentSvagcCoreConfig config_;
  // Single mover: evacuation windows run serially on worker 0.
  std::unique_ptr<ObjectMover> mover_;
  rt::Jvm* mover_jvm_ = nullptr;
  bool pinned_this_cycle_ = false;
  // "gc.pin_refusals": cycles whose pin request was refused, so the whole
  // evacuation fell back to per-call global shootdowns.
  telemetry::Counter& pin_refusals_;
};

}  // namespace svagc::core
