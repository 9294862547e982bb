// Heap snapshot/restore for differential testing.
//
// SnapshotHeap captures the allocated prefix [base, top) byte-for-byte plus
// the root set; RestoreHeap writes it all back, so the same pre-GC heap can
// be collected twice — once per collector under comparison — from an
// identical starting state. The copy goes through RawPtr and RawWritePtr,
// so it is harness bookkeeping: no simulated cycles are charged and no TLB
// state changes.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/roots.h"

namespace svagc::rt {

class Jvm;

struct HeapSnapshot {
  vaddr_t base = 0;
  vaddr_t top = 0;
  std::vector<std::uint8_t> bytes;  // [base, top), top - base bytes
  std::vector<vaddr_t> root_slots;
  std::vector<RootSet::Handle> root_free;
};

// Retires all TLABs (so the captured heap is linearly parsable), then copies
// the allocated prefix and the root set out of the Jvm.
HeapSnapshot SnapshotHeap(Jvm& jvm);

// Writes `snapshot` back into the Jvm: heap bytes, top, and roots. The Jvm
// must be the one the snapshot was taken from (same heap base/capacity).
void RestoreHeap(Jvm& jvm, const HeapSnapshot& snapshot);

}  // namespace svagc::rt
