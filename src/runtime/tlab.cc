#include "runtime/tlab.h"

namespace svagc::rt {

vaddr_t Tlab::Allocate(Heap& heap, std::uint64_t bytes) {
  if (!valid()) return 0;
  SVAGC_DCHECK(IsAligned(bytes, 8) && bytes >= kMinObjectBytes);
  if (heap.IsLargeObject(bytes)) {
    if (bytes > large_bottom_ - small_top_) return 0;
    const vaddr_t start = AlignDown(large_bottom_ - bytes, sim::kPageSize);
    if (start < small_top_) return 0;
    // Tail gap between this object and the previous back-allocation: filled
    // now so a later SwapVA of this object moves only self-owned pages.
    const std::uint64_t tail = large_bottom_ - (start + bytes);
    if (tail > 0) {
      heap.WriteFiller(start + bytes, tail);
      heap.NoteAlignmentWaste(tail);
    }
    large_bottom_ = start;
    return start;
  }
  if (bytes > large_bottom_ - small_top_) return 0;
  const vaddr_t object = small_top_;
  small_top_ += bytes;
  return object;
}

void Tlab::MakeParsable(Heap& heap) const {
  if (valid()) heap.WriteFiller(small_top_, large_bottom_ - small_top_);
}

void Tlab::Retire(Heap& heap) {
  MakeParsable(heap);
  start_ = end_ = small_top_ = large_bottom_ = 0;
}

}  // namespace svagc::rt
