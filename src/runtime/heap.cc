#include "runtime/heap.h"

namespace svagc::rt {

Heap::Heap(sim::AddressSpace& as, const HeapConfig& config)
    : as_(as), config_(config), base_(config.base) {
  SVAGC_CHECK(IsAligned(base_, sim::kPageSize));
  SVAGC_CHECK(config_.swap_threshold_pages >= 1);
  if (huge_enabled()) {
    // The huge class sits on top of the large class, and PMD leaves need
    // the whole range to be 2 MiB-granular.
    SVAGC_CHECK(config_.huge_threshold_pages >= config_.swap_threshold_pages);
    SVAGC_CHECK(IsAligned(base_, sim::kHugePageSize));
    const std::uint64_t capacity =
        AlignUp(config.capacity, sim::kHugePageSize);
    end_ = base_ + capacity;
    top_ = base_;
    as_.MapRangeHuge(base_, capacity);
    return;
  }
  const std::uint64_t capacity = AlignUp(config.capacity, sim::kPageSize);
  end_ = base_ + capacity;
  top_ = base_;
  as_.MapRange(base_, capacity);
}

Heap::~Heap() { as_.UnmapRange(base_, end_ - base_); }

vaddr_t Heap::AllocateRaw(std::uint64_t bytes) {
  SVAGC_DCHECK(IsAligned(bytes, 8) && bytes >= kMinObjectBytes);
  const Placement place = Place(bytes, top_);
  const vaddr_t end_of_object = place.dst + bytes;
  if (end_of_object > end_) return 0;
  // end_ is aligned to the coarsest grain in use, so an object that fits
  // never post-aligns past it.
  SVAGC_DCHECK(place.next <= end_);
  if (place.dst > top_) {
    WriteFiller(top_, place.dst - top_);
    NoteAlignmentWaste(place.dst - top_);
  }
  if (place.next > end_of_object) {
    WriteFiller(end_of_object, place.next - end_of_object);
    NoteAlignmentWaste(place.next - end_of_object);
  }
  top_ = place.next;
  return place.dst;
}

vaddr_t Heap::AllocateTlabChunk(std::uint64_t bytes) {
  SVAGC_DCHECK(IsAligned(bytes, sim::kPageSize));
  const vaddr_t aligned = AlignUp(top_, sim::kPageSize);
  if (aligned + bytes > end_) return 0;
  if (aligned > top_) {
    WriteFiller(top_, aligned - top_);
    NoteAlignmentWaste(aligned - top_);
  }
  top_ = aligned + bytes;
  return aligned;
}

void Heap::WriteFiller(vaddr_t addr, std::uint64_t bytes) {
  if (bytes == 0) return;
  SVAGC_DCHECK(IsAligned(bytes, 8));
  SVAGC_DCHECK(addr >= base_ && addr + bytes <= end_);
  as_.WriteWord(addr, MakeFillerWord(bytes));
}

void Heap::SetTopAfterGc(vaddr_t new_top) {
  SVAGC_DCHECK(new_top >= base_ && new_top <= end_);
  top_ = new_top;
}

}  // namespace svagc::rt
