// Set-associative tag store with exact per-set LRU, shared by the cache
// levels and the two TLB levels.
//
// Each set is one row of `ways` tags ordered most-recently-used first, so
// the row order is the LRU state and no global clock is needed: a hit moves
// its tag to the front, a miss shifts the row down one slot (dropping the
// LRU tag) and puts the new tag in front. Empty ways sit at the back. The
// set index is `key & (sets - 1)`, so the set count must be a power of two.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/check.h"

namespace svagc::memsim {

class LruTags {
 public:
  LruTags(std::uint64_t sets, unsigned ways)
      : mask_(sets - 1), ways_(ways), tags_(sets * ways, kEmpty) {
    SVAGC_CHECK(ways >= 1 && std::has_single_bit(sets));
  }

  std::uint64_t sets() const { return mask_ + 1; }
  unsigned ways() const { return ways_; }
  std::uint64_t SetOf(std::uint64_t key) const { return key & mask_; }

  // Looks `key` up and makes it its set's MRU tag, evicting the LRU tag on
  // a miss. Returns true on a hit.
  bool Probe(std::uint64_t key) {
    SVAGC_DCHECK(key != kEmpty);
    std::uint64_t* row = Row(key);
    // A constant way count lets the compiler unroll the scan, which halves
    // its cost; these are the counts the shipped configurations use.
    switch (ways_) {
      case 4:
        return ScanShift(row, 4, key);
      case 8:
        return ScanShift(row, 8, key);
      case 11:
        return ScanShift(row, 11, key);
      case 12:
        return ScanShift(row, 12, key);
      case 16:
        return ScanShift(row, 16, key);
      default:
        return ScanShift(row, ways_, key);
    }
  }

  // Probe() for a key the caller knows is absent from its set: the same
  // eviction and fill, without the scan.
  void Fill(std::uint64_t key) {
    std::uint64_t* row = Row(key);
    std::memmove(row + 1, row, (ways_ - 1) * sizeof(*row));
    row[0] = key;
  }

 private:
  // Marks an empty way. Callers' keys (line numbers of lines of at least
  // two bytes, page or huge-unit numbers) never reach this value.
  static constexpr std::uint64_t kEmpty = ~0ULL;

  std::uint64_t* Row(std::uint64_t key) { return &tags_[SetOf(key) * ways_]; }

  // Scan and shift the row's `n` ways in one pass: each way takes its
  // predecessor's tag until the key turns up (a hit ends the shift there)
  // or the LRU tag falls off the end.
  [[gnu::always_inline]] static bool ScanShift(std::uint64_t* row, unsigned n,
                                               std::uint64_t key) {
    std::uint64_t carried = key;
#pragma GCC unroll 16
    for (unsigned way = 0; way < n; ++way) {
      const std::uint64_t tag = row[way];
      row[way] = carried;
      if (tag == key) return true;
      carried = tag;
    }
    return false;
  }

  std::uint64_t mask_;
  unsigned ways_;
  std::vector<std::uint64_t> tags_;  // sets x ways, row-major
};

}  // namespace svagc::memsim
