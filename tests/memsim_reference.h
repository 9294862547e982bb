// Reference memsim model for the differential tests: the original per-line
// set-associative cache and DTLB, with a global LRU clock per structure and
// one full tag scan plus victim search per probe. It is kept only as the
// oracle the production model (src/memsim) must match counter for counter;
// nothing outside tests/ may use it.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "memsim/hierarchy.h"
#include "simkernel/config.h"
#include "support/check.h"

namespace svagc::memsim::reference {

class Cache {
 public:
  explicit Cache(const CacheConfig& config) : config_(config) {
    SVAGC_CHECK(config.line_bytes > 0 &&
                (config.line_bytes & (config.line_bytes - 1)) == 0);
    line_shift_ = static_cast<unsigned>(std::countr_zero(config.line_bytes));
    const std::uint64_t lines = config.size_bytes / config.line_bytes;
    SVAGC_CHECK(lines >= config.ways && lines % config.ways == 0);
    sets_ = static_cast<unsigned>(lines / config.ways);
    lines_.resize(lines);
  }

  bool Access(std::uint64_t address) {
    const std::uint64_t block = address >> line_shift_;
    const unsigned set = static_cast<unsigned>(block % sets_);
    Line* row = &lines_[static_cast<std::size_t>(set) * config_.ways];
    Line* victim = &row[0];
    for (unsigned w = 0; w < config_.ways; ++w) {
      Line& line = row[w];
      if (line.valid && line.tag == block) {
        line.lru = ++clock_;
        ++hits_;
        return true;
      }
      if (!line.valid) {
        victim = &line;
      } else if (victim->valid && line.lru < victim->lru) {
        victim = &line;
      }
    }
    ++misses_;
    *victim = Line{true, block, ++clock_};
    return false;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  const CacheConfig& config() const { return config_; }

 private:
  struct Line {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
  };

  CacheConfig config_;
  unsigned sets_;
  unsigned line_shift_;
  std::vector<Line> lines_;  // sets_ x ways_
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class DtlbSim {
 public:
  DtlbSim(unsigned l1_entries, unsigned l1_ways, unsigned stlb_entries,
          unsigned stlb_ways)
      : l1_(l1_entries, l1_ways), stlb_(stlb_entries, stlb_ways) {}

  void Access(std::uint64_t vaddr) {
    const std::uint64_t key = KeyFor(vaddr);
    ++accesses_;
    if (l1_.LookupInsert(key, &clock_)) return;
    ++l1_misses_;
    if (!stlb_.LookupInsert(key, &clock_)) ++stlb_misses_;
  }

  void AccessRange(std::uint64_t vaddr, std::uint64_t bytes) {
    if (bytes == 0) return;
    const std::uint64_t first = vaddr >> sim::kPageShift;
    const std::uint64_t last = (vaddr + bytes - 1) >> sim::kPageShift;
    std::uint64_t prev_key = ~0ULL;
    for (std::uint64_t vpn = first; vpn <= last; ++vpn) {
      const std::uint64_t key = KeyFor(vpn << sim::kPageShift);
      if (key == prev_key) continue;
      prev_key = key;
      if (!l1_.LookupInsert(key, &clock_)) {
        ++l1_misses_;
        if (!stlb_.LookupInsert(key, &clock_)) ++stlb_misses_;
      }
    }
    accesses_ += (bytes + 7) / 8;
  }

  void SetHugeSpan(std::uint64_t lo, std::uint64_t hi) {
    huge_lo_ = lo;
    huge_hi_ = hi;
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t l1_misses() const { return l1_misses_; }
  std::uint64_t stlb_misses() const { return stlb_misses_; }

 private:
  struct Level {
    unsigned sets;
    unsigned ways;
    struct Entry {
      bool valid = false;
      std::uint64_t vpn = 0;
      std::uint64_t lru = 0;
    };
    std::vector<Entry> entries;

    Level(unsigned num_entries, unsigned num_ways)
        : sets(num_entries / num_ways), ways(num_ways),
          entries(static_cast<std::size_t>(sets) * num_ways) {
      SVAGC_CHECK(sets >= 1);
    }

    bool LookupInsert(std::uint64_t vpn, std::uint64_t* clock) {
      Entry* row = &entries[(vpn % sets) * ways];
      Entry* victim = &row[0];
      for (unsigned w = 0; w < ways; ++w) {
        Entry& entry = row[w];
        if (entry.valid && entry.vpn == vpn) {
          entry.lru = ++*clock;
          return true;
        }
        if (!entry.valid) {
          victim = &entry;
        } else if (victim->valid && entry.lru < victim->lru) {
          victim = &entry;
        }
      }
      *victim = Entry{true, vpn, ++*clock};
      return false;
    }
  };

  std::uint64_t KeyFor(std::uint64_t vaddr) const {
    if (vaddr >= huge_lo_ && vaddr < huge_hi_) {
      return (vaddr >> sim::kHugePageShift) | (1ULL << 62);
    }
    return vaddr >> sim::kPageShift;
  }

  Level l1_;
  Level stlb_;
  std::uint64_t huge_lo_ = 0;
  std::uint64_t huge_hi_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t l1_misses_ = 0;
  std::uint64_t stlb_misses_ = 0;
};

// L1 -> L2 -> LLC + DTLB, one probe per line of every access, down the
// levels until one hits.
class Hierarchy {
 public:
  explicit Hierarchy(const HierarchyConfig& config)
      : l1_(config.l1),
        l2_(config.l2),
        llc_(config.llc),
        dtlb_(config.dtlb_entries, config.dtlb_ways, config.stlb_entries,
              config.stlb_ways) {}

  void OnAccess(std::uint64_t vaddr, std::uint32_t size) {
    const std::uint64_t line = l1_.config().line_bytes;
    const std::uint64_t first = vaddr / line;
    const std::uint64_t last = (vaddr + (size == 0 ? 0 : size - 1)) / line;
    for (std::uint64_t block = first; block <= last; ++block) {
      const std::uint64_t address = block * line;
      if (!l1_.Access(address)) {
        if (!l2_.Access(address)) {
          llc_.Access(address);
        }
      }
    }
    dtlb_.AccessRange(vaddr, size);
  }

  void SetHugeSpan(std::uint64_t lo, std::uint64_t hi) {
    dtlb_.SetHugeSpan(lo, hi);
  }

  Cache& l1() { return l1_; }
  Cache& l2() { return l2_; }
  Cache& llc() { return llc_; }
  DtlbSim& dtlb() { return dtlb_; }

 private:
  Cache l1_;
  Cache l2_;
  Cache llc_;
  DtlbSim dtlb_;
};

}  // namespace svagc::memsim::reference
