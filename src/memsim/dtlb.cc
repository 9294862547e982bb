#include "memsim/dtlb.h"

namespace svagc::memsim {

DtlbSim::DtlbSim(unsigned l1_entries, unsigned l1_ways, unsigned stlb_entries,
                 unsigned stlb_ways)
    : l1_(l1_entries / l1_ways, l1_ways),
      stlb_(stlb_entries / stlb_ways, stlb_ways) {}

void DtlbSim::Access(std::uint64_t vaddr) {
  ++accesses_;
  Probe(KeyFor(vaddr));
}

void DtlbSim::AccessRange(std::uint64_t vaddr, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = vaddr >> sim::kPageShift;
  const std::uint64_t last = (vaddr + bytes - 1) >> sim::kPageShift;
  std::uint64_t prev_key = ~0ULL;
  for (std::uint64_t vpn = first; vpn <= last; ++vpn) {
    // Pages sharing one huge entry probe it once, so a 2 MiB-mapped sweep
    // costs 1/512th the probes of a 4 KiB-mapped one.
    const std::uint64_t key = KeyFor(vpn << sim::kPageShift);
    if (key == prev_key) continue;
    prev_key = key;
    Probe(key);
  }
  // Word-granularity loads are the denominator perf divides by.
  accesses_ += (bytes + 7) / 8;
}

}  // namespace svagc::memsim
