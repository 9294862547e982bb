#include "memsim/hierarchy.h"

namespace svagc::memsim {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : l1_(config.l1),
      l2_(config.l2),
      llc_(config.llc),
      dtlb_(config.dtlb_entries, config.dtlb_ways, config.stlb_entries,
            config.stlb_ways) {
  // A line number then names the same line at every level, so the lines
  // of one access stay distinct all the way down.
  SVAGC_CHECK(config.l2.line_bytes == config.l1.line_bytes &&
              config.llc.line_bytes == config.l1.line_bytes);
  // OnAccess runs on GC worker threads and never allocates. A level hits
  // at most its sets x ways lines of one access, and each hit splits at
  // most one run of misses in two: L1's one run leaves at most L1-sets x
  // ways + 1 runs of L1 misses, and L2 adds at most its own sets x ways.
  // Each cache reserves room for its own hits.
  call_lines_.reserve(1);
  l1_misses_.reserve(l1_.capacity_lines() + 1);
  l2_misses_.reserve(l1_.capacity_lines() + l2_.capacity_lines() + 1);
}

void MemoryHierarchy::OnAccess(std::uint64_t vaddr, std::uint32_t size,
                               bool is_write) {
  (void)is_write;  // allocate-on-write; miss counting is direction-agnostic
  SpinLockGuard guard(lock_);
  const unsigned shift = l1_.line_shift();
  const std::uint64_t first = vaddr >> shift;
  const std::uint64_t last = (vaddr + (size == 0 ? 0 : size - 1)) >> shift;
  if (last - first < l1_.capacity_lines()) {
    // A call no longer than L1's sets x ways gives no set of L1 (or of a
    // larger level) more than `ways` of its lines, so none is a guaranteed
    // miss: probe each line down the levels.
    for (std::uint64_t line = first; line <= last; ++line) {
      if (!l1_.AccessLine(line) && !l2_.AccessLine(line)) {
        llc_.AccessLine(line);
      }
    }
  } else {
    // The lines of one access are distinct and each level sees an ordered
    // subset of them, so every level can walk its runs set by set.
    call_lines_.assign(1, LineRun{first, last + 1});
    l1_.AccessDistinct(call_lines_, &l1_misses_);
    l2_.AccessDistinct(l1_misses_, &l2_misses_);
    llc_.AccessDistinct(l2_misses_, nullptr);
  }
  dtlb_.AccessRange(vaddr, size);
}

}  // namespace svagc::memsim
