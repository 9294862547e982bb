// The managed heap: one contiguous virtual range with bump-pointer
// allocation, Algorithm 3's page-alignment policy for large objects, and
// linear walkability (objects + tagged filler gaps).
#pragma once

#include <cstdint>

#include "runtime/object.h"
#include "simkernel/address_space.h"
#include "support/align.h"

namespace svagc::rt {

struct HeapConfig {
  vaddr_t base = 1ULL << 32;  // arbitrary page-aligned VA
  std::uint64_t capacity = 64ULL << 20;

  // MoveObject's Threshold_Swapping, in pages. Objects of at least this many
  // pages are "large": allocated page-aligned (when page_align_large is set)
  // and moved with SwapVA by collectors that use it.
  std::uint64_t swap_threshold_pages = 10;

  // SVAGC-family collectors require page alignment of large objects;
  // baseline collectors (ParallelGC/Shenandoah shapes) do not align.
  bool page_align_large = true;

  // 2 MiB alignment class: when non-zero, the heap is mapped with PMD
  // leaves over contiguous frames and objects of at least this many pages
  // are allocated 2 MiB-aligned and tail-padded to 2 MiB, so MoveObject's
  // swaps hit the kernel's PMD fast path. Must be >= swap_threshold_pages
  // (huge objects are a subclass of large). 0 disables the class entirely —
  // the default, keeping every pre-huge heap layout bit-identical.
  std::uint64_t huge_threshold_pages = 0;
};

class Heap {
 public:
  Heap(sim::AddressSpace& as, const HeapConfig& config);
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;
  ~Heap();

  sim::AddressSpace& address_space() { return as_; }
  const HeapConfig& config() const { return config_; }

  vaddr_t base() const { return base_; }
  vaddr_t end() const { return end_; }
  vaddr_t top() const { return top_; }
  std::uint64_t capacity() const { return end_ - base_; }
  std::uint64_t used() const { return top_ - base_; }

  std::uint64_t large_threshold_bytes() const {
    return config_.swap_threshold_pages * sim::kPageSize;
  }
  // An object is "large" when it spans at least Threshold_Swapping pages
  // (Algorithm 3 line 8); only then does the alignment policy apply.
  bool IsLargeObject(std::uint64_t bytes) const {
    return config_.page_align_large && bytes >= large_threshold_bytes();
  }

  bool huge_enabled() const { return config_.huge_threshold_pages != 0; }
  std::uint64_t huge_threshold_bytes() const {
    return config_.huge_threshold_pages * sim::kPageSize;
  }
  // The 2 MiB alignment class: a large object big enough that PMD-entry
  // swapping beats 512 PTE exchanges per unit.
  bool IsHugeObject(std::uint64_t bytes) const {
    return huge_enabled() && config_.page_align_large &&
           bytes >= huge_threshold_bytes();
  }

  // Algorithm 3's layout rule, the one place it is written. An object of
  // `bytes` placed at `at` starts at `dst`: IFSWAPALIGN puts a large object
  // on a fresh page and a huge one on a fresh 2 MiB unit. The next object
  // may start at `next`: post-alignment (line 19) keeps everything else off
  // the large object's last page (unit), so a SwapVA of its page extent
  // never carries a neighbour along. Small objects pack: next = dst + bytes.
  struct Placement {
    vaddr_t dst;
    vaddr_t next;
  };
  Placement Place(std::uint64_t bytes, vaddr_t at) const {
    if (!IsLargeObject(bytes)) return {at, at + bytes};
    const std::uint64_t grain =
        IsHugeObject(bytes) ? sim::kHugePageSize : sim::kPageSize;
    const vaddr_t dst = AlignUp(at, grain);
    return {dst, AlignUp(dst + bytes, grain)};
  }

  // Algorithm 3's ALLOCMEM on the shared space: places the object at the
  // top by Place(), writes filler into both alignment gaps so the heap stays
  // walkable, and moves the top to the placement's `next`. Returns 0 when
  // the object does not fit (caller triggers GC).
  vaddr_t AllocateRaw(std::uint64_t bytes);

  // Carves a page-aligned TLAB chunk of exactly `bytes` (page multiple) off
  // the shared space. Returns 0 when it does not fit.
  vaddr_t AllocateTlabChunk(std::uint64_t bytes);

  // Writes a tagged filler word covering [addr, addr+bytes). bytes may be 0.
  void WriteFiller(vaddr_t addr, std::uint64_t bytes);

  // Collector interface: after compaction the live prefix ends at new_top.
  void SetTopAfterGc(vaddr_t new_top);

  // Linear heap walk: invokes f(address, size_bytes) for every *object*
  // (fillers are skipped but advance the cursor).
  template <typename F>
  void ForEachObject(F&& f) const {
    vaddr_t cursor = base_;
    while (cursor < top_) {
      const std::uint64_t word = as_.ReadWord(cursor);
      if (IsFillerWord(word)) {
        cursor += FillerGapBytes(word);
        continue;
      }
      SVAGC_DCHECK(word >= kMinObjectBytes);
      f(cursor, word);
      cursor += word;
    }
    SVAGC_DCHECK(cursor == top_);
  }

  // Offset helpers for side tables (mark bitmaps).
  std::uint64_t WordIndex(vaddr_t addr) const {
    SVAGC_DCHECK(addr >= base_ && addr < end_ && (addr & 7) == 0);
    return (addr - base_) >> 3;
  }
  std::uint64_t capacity_words() const { return capacity() >> 3; }

  // Allocation statistics (the <5% fragmentation claim in §IV is asserted
  // against alignment_waste_bytes in tests).
  std::uint64_t allocated_objects() const { return allocated_objects_; }
  std::uint64_t allocated_bytes() const { return allocated_bytes_; }
  std::uint64_t large_objects_allocated() const { return large_objects_; }
  std::uint64_t alignment_waste_bytes() const { return alignment_waste_; }
  void NoteAllocation(std::uint64_t bytes, bool large) {
    ++allocated_objects_;
    allocated_bytes_ += bytes;
    if (large) ++large_objects_;
  }
  void NoteAlignmentWaste(std::uint64_t bytes) { alignment_waste_ += bytes; }

 private:
  sim::AddressSpace& as_;
  const HeapConfig config_;
  vaddr_t base_;
  vaddr_t end_;
  vaddr_t top_;

  std::uint64_t allocated_objects_ = 0;
  std::uint64_t allocated_bytes_ = 0;
  std::uint64_t large_objects_ = 0;
  std::uint64_t alignment_waste_ = 0;
};

}  // namespace svagc::rt
