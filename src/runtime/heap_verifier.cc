#include "runtime/heap_verifier.h"

#include <unordered_set>

#include "runtime/jvm.h"
#include "support/table.h"

namespace svagc::rt {

namespace {

std::string Hex(vaddr_t addr) { return Format("0x%llx", (unsigned long long)addr); }

struct CheckSet {
  bool extents = false;     // page-extent exclusivity during the parse
  bool references = false;  // passes 2 and 3 after the parse
};

// The single heap walk behind every checker. The linear parse (tiling) is
// always performed — nothing else is checkable on a heap that does not
// parse — with the other checks selected by `checks`.
VerifyResult Verify(Jvm& jvm, const CheckSet& checks) {
  VerifyResult result;
  // The linear walk requires a parsable heap: fill the free middle of every
  // live TLAB (the GC prologue retires them). The TLABs stay open, so
  // verifying never moves where later objects are allocated.
  jvm.MakeTlabsParsable();
  Heap& heap = jvm.heap();
  sim::AddressSpace& as = jvm.address_space();

  auto fail = [&](std::string message) {
    if (result.ok) {
      result.ok = false;
      result.error = std::move(message);
    }
  };

  // Pass 1: linear parse, collect object starts, check sizes and alignment.
  std::unordered_set<vaddr_t> starts;
  vaddr_t cursor = heap.base();
  // End of the page extent of the most recent large object; no *object* may
  // begin before it (filler in the extent tail is by design).
  vaddr_t pending_extent_end = 0;
  while (cursor < heap.top()) {
    const std::uint64_t word = as.ReadWord(cursor);
    if (IsFillerWord(word)) {
      const std::uint64_t gap = FillerGapBytes(word);
      if (gap == 0 || (gap & 7) != 0 || cursor + gap > heap.top()) {
        fail("bad filler at " + Hex(cursor));
        break;
      }
      ++result.fillers;
      cursor += gap;
      continue;
    }
    const std::uint64_t size = word;
    if (size < kMinObjectBytes || (size & 7) != 0 ||
        cursor + size > heap.top()) {
      fail("bad object size at " + Hex(cursor));
      break;
    }
    if (checks.extents && cursor < pending_extent_end) {
      fail("object inside large-object page extent at " + Hex(cursor));
      break;
    }
    ObjectView view(as, cursor);
    if (ObjectBytes(view.num_refs(), 0) > size) {
      fail("refs overflow object at " + Hex(cursor));
      break;
    }
    if (heap.IsLargeObject(size)) {
      if (checks.extents && !IsAligned(cursor, sim::kPageSize)) {
        fail("large object not page-aligned at " + Hex(cursor));
        break;
      }
      pending_extent_end = AlignUp(cursor + size, sim::kPageSize);
    }
    starts.insert(cursor);
    ++result.objects;
    result.live_bytes += size;
    cursor += size;
  }
  if (result.ok && cursor != heap.top()) {
    fail("heap walk ended at " + Hex(cursor) + " expected top " +
         Hex(heap.top()));
  }
  if (!result.ok || !checks.references) return result;

  // Pass 2: every reference lands on an object start.
  heap.ForEachObject([&](vaddr_t addr, std::uint64_t) {
    ObjectView view(as, addr);
    const std::uint32_t refs = view.num_refs();
    for (std::uint32_t i = 0; i < refs; ++i) {
      const vaddr_t target = view.ref(i);
      if (target != 0 && starts.find(target) == starts.end()) {
        fail("dangling ref " + Hex(target) + " in object " + Hex(addr));
      }
    }
  });

  // Pass 3: roots.
  jvm.roots().ForEachSlot([&](vaddr_t& slot) {
    if (slot != 0 && starts.find(slot) == starts.end()) {
      fail("dangling root " + Hex(slot));
    }
  });
  return result;
}

}  // namespace

VerifyResult CheckHeapTiling(Jvm& jvm) { return Verify(jvm, {}); }

VerifyResult CheckPageExtents(Jvm& jvm) {
  return Verify(jvm, {.extents = true});
}

VerifyResult CheckReferences(Jvm& jvm) {
  return Verify(jvm, {.references = true});
}

VerifyResult VerifyHeap(Jvm& jvm) {
  return Verify(jvm, {.extents = true, .references = true});
}

}  // namespace svagc::rt
