#include "runtime/heap_snapshot.h"

#include <algorithm>
#include <cstring>

#include "runtime/jvm.h"

namespace svagc::rt {

namespace {

// Frames are per-page, so RawPtr is only contiguous within one page — walk
// the range page by page.
template <typename F>
void ForEachPageChunk(vaddr_t begin, vaddr_t end, F&& f) {
  vaddr_t cursor = begin;
  while (cursor < end) {
    const vaddr_t page_end = (cursor & ~(sim::kPageSize - 1)) + sim::kPageSize;
    const std::uint64_t chunk = std::min<std::uint64_t>(page_end, end) - cursor;
    f(cursor, chunk);
    cursor += chunk;
  }
}

}  // namespace

HeapSnapshot SnapshotHeap(Jvm& jvm) {
  jvm.RetireAllTlabs();
  Heap& heap = jvm.heap();
  sim::AddressSpace& as = jvm.address_space();

  HeapSnapshot snapshot;
  snapshot.base = heap.base();
  snapshot.top = heap.top();
  snapshot.bytes.resize(snapshot.top - snapshot.base);
  ForEachPageChunk(snapshot.base, snapshot.top,
                   [&](vaddr_t vaddr, std::uint64_t chunk) {
                     std::memcpy(
                         snapshot.bytes.data() + (vaddr - snapshot.base),
                         as.RawPtr(vaddr), chunk);
                   });
  snapshot.root_slots = jvm.roots().SnapshotSlots();
  snapshot.root_free = jvm.roots().SnapshotFreeList();
  return snapshot;
}

void RestoreHeap(Jvm& jvm, const HeapSnapshot& snapshot) {
  Heap& heap = jvm.heap();
  SVAGC_CHECK(snapshot.base == heap.base() && snapshot.top <= heap.end());
  // Open TLABs hold carve-outs above the snapshot top; drop them before the
  // top moves back.
  jvm.RetireAllTlabs();
  sim::AddressSpace& as = jvm.address_space();
  ForEachPageChunk(snapshot.base, snapshot.top,
                   [&](vaddr_t vaddr, std::uint64_t chunk) {
                     std::memcpy(as.RawPtr(vaddr),
                                 snapshot.bytes.data() +
                                     (vaddr - snapshot.base),
                                 chunk);
                   });
  heap.SetTopAfterGc(snapshot.top);
  jvm.roots().Restore(snapshot.root_slots, snapshot.root_free);
}

}  // namespace svagc::rt
