#include "core/minor_copy.h"

namespace svagc::core {

EvacuationResult MinorEvacuator::Evacuate(
    const std::vector<rt::vaddr_t>& survivors, rt::vaddr_t to_space,
    EvacuationMode mode, sim::CpuContext& ctx) {
  EvacuationResult result;
  sim::AddressSpace& as = jvm_.address_space();
  rt::vaddr_t top = to_space;
  for (const rt::vaddr_t src : survivors) {
    const std::uint64_t size = rt::ObjectView(as, src).size();
    const rt::Heap::Placement place = jvm_.heap().Place(size, top);
    mover_.Move(ctx, src, place.dst, size);
    if (mode == EvacuationMode::kConcurrentSolo) {
      // Concurrent relocation: each object's move is independent and must
      // be visible before the next — no batching survives the object.
      mover_.Flush(ctx);
    }
    result.relocations.emplace_back(src, place.dst);
    ++result.objects;
    result.bytes += size;
    top = place.next;
  }
  mover_.Flush(ctx);
  result.to_space_top = top;
  return result;
}

}  // namespace svagc::core
