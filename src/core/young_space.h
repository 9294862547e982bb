// The young generation: one contiguous extent carved off the managed heap,
// subdivided into per-mutator-thread allocation zones (VGC-style bump
// pointers) plus single-object page-aligned runs for survivors and medium
// objects. The extent is internally managed by an address-ordered free-run
// allocator; every free run is page-aligned, a page multiple, and covered
// by a tagged filler word at its base, so the enclosing heap stays linearly
// walkable at all times — Heap::ForEachObject and VerifyHeap work unchanged
// whether a nursery is attached or not.
//
// Lifecycle: the generational collector Attach()es an extent lazily (from
// the current heap top, like a TLAB chunk), runs minor collections that
// recycle runs through ResetFreeTo(), and Release()s the whole extent
// before a full collection so the inner LISP2 cycle compacts the dead
// nursery hole away.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "runtime/heap.h"
#include "runtime/object.h"
#include "simkernel/config.h"
#include "support/check.h"

namespace svagc::core {

struct YoungSpaceConfig {
  // Per-thread zone size; page multiple. Objects above half a zone get
  // their own page-aligned run instead (mirrors the TLAB half-size rule).
  std::uint64_t zone_bytes = 64 * sim::kPageSize;  // 256 KiB
};

class YoungSpace {
 public:
  struct Run {
    rt::vaddr_t base = 0;
    std::uint64_t bytes = 0;
  };

  // A live per-thread allocation zone (the registry entry minor GC and
  // tests inspect). [base, cursor) holds objects, [cursor, end) is always
  // covered by a filler so the heap is parsable mid-mutation.
  struct Zone {
    rt::vaddr_t base = 0;
    rt::vaddr_t cursor = 0;
    rt::vaddr_t end = 0;
    bool live() const { return base != 0; }
  };

  YoungSpace(rt::Heap& heap, unsigned num_threads,
             const YoungSpaceConfig& config)
      : heap_(heap), config_(config), zones_(num_threads) {
    SVAGC_CHECK(num_threads >= 1);
    SVAGC_CHECK(config.zone_bytes >= 2 * sim::kPageSize);
    SVAGC_CHECK(IsAligned(config.zone_bytes, sim::kPageSize));
  }

  bool attached() const { return base_ != 0; }
  rt::vaddr_t base() const { return base_; }
  rt::vaddr_t end() const { return end_; }
  std::uint64_t extent_bytes() const { return end_ - base_; }
  const YoungSpaceConfig& config() const { return config_; }

  // The O(1) young test the write barrier runs on every recorded store.
  // Sound as an over-approximation: free runs inside the extent contain no
  // reachable objects, so a spurious "young" for a garbage address is
  // harmless (the scavenger traces, it never trusts raw addresses).
  bool Contains(rt::vaddr_t addr) const {
    return addr >= base_ && addr < end_;
  }

  // Carves a fresh extent of `bytes` (page multiple) off the heap top and
  // covers it with filler. Returns false when the heap cannot host it.
  bool Attach(std::uint64_t bytes);

  // Covers the whole extent with filler and detaches. The hole stays in
  // the heap until the next full compaction slides it away. Only legal
  // when no live object remains in the extent.
  void Release();

  // Detaches WITHOUT fillering: live young objects stay in place as
  // ordinary heap objects (the extent is walkable at all times — zone
  // tails and free runs already carry fillers), so an immediately
  // following full collection marks and compacts them like any other
  // object. This is how the generational collector hands the nursery to
  // the inner LISP2 cycle: no evacuation, no OOM hazard when old space is
  // already full.
  void Abandon();

  // Mutator path: bump-allocates in `logical_thread`'s zone, refilling the
  // zone from the free list when exhausted. Returns 0 when no free run can
  // host a fresh zone (caller triggers a minor collection).
  rt::vaddr_t AllocateSmall(std::uint64_t bytes, unsigned logical_thread);

  // Mutator path for medium objects: a dedicated page-aligned run of
  // AlignUp(bytes, page) with the tail slack fillered. Returns 0 on
  // exhaustion.
  rt::vaddr_t AllocateRunObject(std::uint64_t bytes);

  // Scavenger path: carves a page-multiple run (first fit, address order)
  // for a copy destination. The caller owns making it walkable. Returns a
  // zero run when nothing fits.
  Run AllocateRun(std::uint64_t bytes);

  // Address-ordered snapshot of the current free runs. The scavenger plans
  // survivor destinations against this, then claims them with TakeRun.
  std::vector<Run> FreeRunsSnapshot() const;

  // Carves exactly [base, base+bytes) (page-aligned page multiple) out of
  // the free run that encloses it.
  void TakeRun(rt::vaddr_t base, std::uint64_t bytes);

  // Scavenger epilogue: the free map becomes the whole extent minus `keep`
  // (the to-runs holding survivors), adjacent free space coalesced, each
  // maximal free run fillered, all zones invalidated. `keep` must be
  // page-aligned page-multiple runs inside the extent, sorted by base.
  void ResetFreeTo(const std::vector<Run>& keep);

  std::uint64_t free_bytes() const { return free_bytes_; }
  std::uint64_t used_bytes() const { return extent_bytes() - free_bytes_; }
  std::uint64_t LargestFreeRun() const;

  const Zone& zone(unsigned logical_thread) const {
    return zones_[logical_thread % zones_.size()];
  }
  unsigned num_zones() const { return static_cast<unsigned>(zones_.size()); }

 private:
  // Removes [base, base+bytes) from the enclosing free run, re-fillering
  // the left and right remainders.
  void CarveFromFreeRun(std::map<rt::vaddr_t, std::uint64_t>::iterator it,
                        rt::vaddr_t base, std::uint64_t bytes);

  rt::Heap& heap_;
  YoungSpaceConfig config_;
  rt::vaddr_t base_ = 0;
  rt::vaddr_t end_ = 0;
  // base -> length of every maximal free run; page-aligned page multiples.
  std::map<rt::vaddr_t, std::uint64_t> free_;
  std::uint64_t free_bytes_ = 0;
  std::vector<Zone> zones_;
};

}  // namespace svagc::core
