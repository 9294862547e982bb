// Full memory hierarchy sink: L1D -> L2 -> LLC plus the DTLB, implementing
// the simkernel trace interface. Ranged accesses (bulk copies) count one
// reference per cache line; TLB probes are one per page touched — the
// granularity at which the hardware events actually occur.
#pragma once

#include <vector>

#include "memsim/cache.h"
#include "memsim/dtlb.h"
#include "simkernel/trace.h"
#include "support/spin_lock.h"

namespace svagc::memsim {

struct HierarchyConfig {
  CacheConfig l1{32 * 1024, 8, 64};
  CacheConfig l2{1024 * 1024, 16, 64};
  CacheConfig llc{22 * 1024 * 1024, 11, 64};
  unsigned dtlb_entries = 64;
  unsigned dtlb_ways = 4;
  unsigned stlb_entries = 1536;
  unsigned stlb_ways = 12;

  // Experiments run with live sets scaled down ~1000x from the paper's
  // multi-GiB heaps; this hierarchy preserves the heap-to-cache size ratio
  // (heap >> LLC, heap >> TLB reach) so streaming behaviour — the thing
  // Table III measures — is in the same regime.
  static HierarchyConfig ScaledForSmallHeaps() {
    return HierarchyConfig{
        .l1 = {8 * 1024, 8, 64},
        .l2 = {64 * 1024, 16, 64},
        .llc = {1024 * 1024, 16, 64},
        .dtlb_entries = 16,
        .dtlb_ways = 4,
        .stlb_entries = 128,
        .stlb_ways = 8,
    };
  }
};

class MemoryHierarchy : public sim::MemTraceSink {
 public:
  // All three levels must share one line size, and every level's set count
  // must be a power of two.
  explicit MemoryHierarchy(const HierarchyConfig& config = {});

  void OnAccess(std::uint64_t vaddr, std::uint32_t size,
                bool is_write) override;

  // "Cache misses %" in Table III is perf's cache-misses / cache-references,
  // i.e. LLC misses over LLC references.
  double LlcMissRatePercent() const { return llc_.MissRatePercent(); }
  double DtlbMissRatePercent() const { return dtlb_.MissRatePercent(); }

  Cache& l1() { return l1_; }
  Cache& l2() { return l2_; }
  Cache& llc() { return llc_; }
  DtlbSim& dtlb() { return dtlb_; }

  // Forwarded to the DTLB: declares the huge-mapped virtual span (the heap,
  // when the 2 MiB alignment class is enabled).
  void SetHugeSpan(std::uint64_t lo, std::uint64_t hi) {
    dtlb_.SetHugeSpan(lo, hi);
  }

  void ResetCounters() {
    l1_.ResetCounters();
    l2_.ResetCounters();
    llc_.ResetCounters();
    dtlb_.ResetCounters();
  }

 private:
  // Parallel GC phases feed the sink from every worker thread; cache and
  // TLB state mutate on every probe, so probes are serialized.
  SpinLock lock_;
  Cache l1_;
  Cache l2_;
  Cache llc_;
  DtlbSim dtlb_;
  // Scratch for a long access: its lines, then those that miss L1 and L2.
  std::vector<LineRun> call_lines_;
  std::vector<LineRun> l1_misses_;
  std::vector<LineRun> l2_misses_;
};

}  // namespace svagc::memsim
