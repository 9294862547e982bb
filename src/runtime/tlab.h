// Thread-Local Allocation Buffer with the paper's dual-ended policy (§IV,
// "Memory Fragmentation Issue"): small objects bump from the front, large
// page-aligned objects grow down from the (page-aligned) back, so the two
// populations never interleave and alignment fragmentation stays bounded.
#pragma once

#include <cstdint>

#include "runtime/heap.h"
#include "runtime/object.h"

namespace svagc::rt {

class Tlab {
 public:
  Tlab() = default;

  bool valid() const { return start_ != 0; }

  // Takes ownership of a fresh page-aligned chunk carved from the heap.
  // Any previous chunk must have been retired first.
  void Assign(vaddr_t start, std::uint64_t bytes) {
    SVAGC_DCHECK(!valid());
    SVAGC_DCHECK(IsAligned(start, sim::kPageSize));
    SVAGC_DCHECK(IsAligned(bytes, sim::kPageSize));
    start_ = start;
    end_ = start + bytes;
    small_top_ = start;
    large_bottom_ = end_;
  }

  // Tries to place an object of `bytes` in this TLAB. Small objects bump
  // small_top_ upward; large (page-alignable) objects slide large_bottom_
  // downward to a page boundary, filling their own tail gap immediately so
  // the heap stays walkable. Returns 0 when the object does not fit.
  vaddr_t Allocate(Heap& heap, std::uint64_t bytes);

  // Fills the unused middle with a filler gap but keeps the chunk: a heap
  // walk can parse it, and allocation continues where it left off (the
  // next object overwrites the filler). Safe to call on an invalid TLAB.
  void MakeParsable(Heap& heap) const;

  // MakeParsable, then detaches from the chunk.
  void Retire(Heap& heap);

  std::uint64_t remaining() const {
    return valid() ? large_bottom_ - small_top_ : 0;
  }

 private:
  vaddr_t start_ = 0;
  vaddr_t end_ = 0;
  vaddr_t small_top_ = 0;
  vaddr_t large_bottom_ = 0;
};

}  // namespace svagc::rt
