// Trace-driven data-TLB model with an L1 DTLB and a unified STLB, the
// counter pair `perf` samples for Table III's "DTLB misses" column (an L1
// DTLB miss that hits the STLB still counts as a dtlb_load_misses event;
// the reported percentage is misses / accesses as in the paper).
#pragma once

#include <cstdint>

#include "memsim/lru_tags.h"
#include "simkernel/config.h"

namespace svagc::memsim {

class DtlbSim {
 public:
  // Skylake-ish: 64-entry 4-way L1 DTLB, 1536-entry 12-way STLB. Each
  // level's set count (entries / ways) must be a power of two.
  DtlbSim(unsigned l1_entries = 64, unsigned l1_ways = 4,
          unsigned stlb_entries = 1536, unsigned stlb_ways = 12);

  void Access(std::uint64_t vaddr);

  // A sequential sweep over [vaddr, vaddr+bytes): the TLB is probed once per
  // page, while the access denominator grows by the number of word loads —
  // matching what perf's dtlb_misses / loads ratio measures for streaming
  // code (one miss amortized over ~512 loads per page).
  void AccessRange(std::uint64_t vaddr, std::uint64_t bytes);

  // Declares [lo, hi) to be backed by 2 MiB mappings: accesses inside the
  // span are tagged per 2 MiB unit, so one entry covers 512 pages — the
  // dTLB-reach effect of PMD leaves the huge-swap path preserves. Empty by
  // default (every access tags at 4 KiB, the pre-huge behaviour).
  void SetHugeSpan(std::uint64_t lo, std::uint64_t hi) {
    huge_lo_ = lo;
    huge_hi_ = hi;
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t l1_misses() const { return l1_misses_; }
  std::uint64_t stlb_misses() const { return stlb_misses_; }
  double MissRatePercent() const {
    return accesses_ == 0 ? 0.0 : 100.0 * static_cast<double>(l1_misses_) /
                                      static_cast<double>(accesses_);
  }
  void ResetCounters() { accesses_ = l1_misses_ = stlb_misses_ = 0; }

 private:
  // One probe down both levels: the STLB sees only L1 DTLB misses.
  void Probe(std::uint64_t key) {
    if (l1_.Probe(key)) return;
    ++l1_misses_;
    if (!stlb_.Probe(key)) ++stlb_misses_;
  }

  // Tag for the TLB entry covering vaddr: the vpn at 4 KiB granularity, or
  // the unit number in a distinct key namespace inside the huge span.
  std::uint64_t KeyFor(std::uint64_t vaddr) const {
    if (vaddr >= huge_lo_ && vaddr < huge_hi_) {
      return (vaddr >> sim::kHugePageShift) | (1ULL << 62);
    }
    return vaddr >> sim::kPageShift;
  }

  LruTags l1_;
  LruTags stlb_;
  std::uint64_t huge_lo_ = 0;
  std::uint64_t huge_hi_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t l1_misses_ = 0;
  std::uint64_t stlb_misses_ = 0;
};

}  // namespace svagc::memsim
