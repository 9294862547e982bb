#include "gc/lisp2.h"

namespace svagc::gc {

void SerialLisp2::Collect(rt::Jvm& jvm) {
  rt::GcCycleRecord rec;
  CycleTasks tasks;
  rt::Heap& heap = jvm.heap();

  MarkBitmap bitmap(heap);
  bitmap.Clear();
  rec.mark = RunSerialPhase([&](sim::CpuContext& ctx) {
    MarkSerial(jvm, bitmap, ctx, costs());
  });

  ForwardingResult fwd{};
  rec.forward = RunSerialPhase([&](sim::CpuContext& ctx) {
    fwd = ComputeForwarding(jvm, bitmap, ctx, costs(), kDefaultRegionBytes);
  });
  const CompactionPlan& plan = fwd.plan;

  rec.adjust = RunSerialPhase([&](sim::CpuContext& ctx) {
    AdjustReferences(jvm, fwd.live, ctx, costs(), /*worker=*/0, /*stride=*/1);
  });

  rec.compact = RunSerialPhase([&](sim::CpuContext& ctx) {
    for (const auto& region : plan.region_moves) {
      for (const Move& move : region) {
        ctx.account.Charge(sim::CostKind::kCompute, costs().move_dispatch);
        jvm.address_space().CopyBytes(ctx, move.dst, move.src, move.size,
                                      sim::AddressSpace::CopyLocality::kCold);
        counters().bytes_copied.Add(move.size);
        counters().objects_moved.Add();
      }
    }
    for (const auto& [addr, bytes] : plan.fillers) {
      ctx.account.Charge(sim::CostKind::kCompute, 12);
      heap.WriteFiller(addr, bytes);
    }
    heap.SetTopAfterGc(plan.new_top);
  });

  if (tracer() != nullptr) {
    // Everything runs serially on worker 0: one task span per phase.
    tasks[0] = {TaskSpan{0, "mark/w0", 0.0, rec.mark}};
    tasks[1] = {TaskSpan{0, "forward/w0", 0.0, rec.forward}};
    tasks[2] = {TaskSpan{0, "adjust/w0", 0.0, rec.adjust}};
    tasks[3] = {TaskSpan{0, "compact/w0", 0.0, rec.compact}};
  }

  log_.Record(rec);
  PublishCycleTelemetry(rec, tasks);
}

}  // namespace svagc::gc
