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
#include <type_traits>
#include <vector>

#include "support/check.h"

namespace svagc::memsim {

class LruTags {
 public:
  // At most 64 ways: ProbeRun keeps one bit per way of a row.
  LruTags(std::uint64_t sets, unsigned ways)
      : mask_(sets - 1),
        set_shift_(static_cast<unsigned>(std::countr_zero(sets))),
        ways_(ways),
        tags_(sets * ways, kEmpty) {
    SVAGC_CHECK(ways >= 1 && ways <= 64 && std::has_single_bit(sets));
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
    // its cost; these are the counts the shipped configurations use. Not
    // through WithWays: behind a lambda the compiler stops inlining this
    // into its per-line callers (AccessLine, the DTLB's probes).
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

  // Probe() on every key of [begin, end) in ascending order, with the same
  // final state, calling on_hit(key) for each key that hits, in no
  // particular order. Keys must stay below 2^63, as line numbers do.
  //
  // Sets are independent and each sees its own keys in ascending order
  // however the run is walked, so it is walked set by set. A set that gets
  // fewer keys than it has ways probes them back to back on its row; any
  // other set is settled by one scan of its row (SettleFullSetRow).
  template <typename OnHit>
  void ProbeRun(std::uint64_t begin, std::uint64_t end, OnHit&& on_hit) {
    SVAGC_DCHECK(begin < end && end <= (1ULL << 63));
    WithWays([&](auto ways) {
      const std::uint64_t stride = sets();
      const std::uint64_t n = end - begin;
      const std::uint64_t sets_touched = n < stride ? n : stride;
      for (std::uint64_t offset = 0; offset < sets_touched; ++offset) {
        const std::uint64_t first = begin + offset;
        const std::uint64_t m = ((n - offset - 1) >> set_shift_) + 1;
        std::uint64_t* row = Row(first);
        if (m < ways) {
          for (std::uint64_t key = first; key < end; key += stride) {
            if (ScanShift(row, ways, key)) on_hit(key);
          }
          continue;
        }
        std::uint64_t hits = SettleFullSetRow(row, ways, first, m, set_shift_);
        for (; hits != 0; hits &= hits - 1) {
          const auto j = static_cast<unsigned>(std::countr_zero(hits));
          on_hit(first + (std::uint64_t{j} << set_shift_));
        }
      }
    });
  }

 private:
  // Marks an empty way. Callers' keys (line numbers of lines of at least
  // two bytes, page or huge-unit numbers) never reach this value.
  static constexpr std::uint64_t kEmpty = ~0ULL;

  std::uint64_t* Row(std::uint64_t key) { return &tags_[SetOf(key) * ways_]; }

  // Calls f(ways), passing Probe's way counts as compile-time constants,
  // so that ProbeRun's row scans unroll too.
  template <typename F>
  [[gnu::always_inline]] auto WithWays(F&& f) -> decltype(f(0u)) {
    switch (ways_) {
      case 4:
        return f(std::integral_constant<unsigned, 4>{});
      case 8:
        return f(std::integral_constant<unsigned, 8>{});
      case 11:
        return f(std::integral_constant<unsigned, 11>{});
      case 12:
        return f(std::integral_constant<unsigned, 12>{});
      case 16:
        return f(std::integral_constant<unsigned, 16>{});
      default:
        return f(ways_);
    }
  }

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

  // ProbeRun for a row of `n` ways whose set gets m >= n keys of the run,
  // k_j = first + (j << set_shift). A k_j found at depth p (0 is the MRU
  // slot) has, when its turn comes, a stack distance of p + j - a: the p
  // tags above it and the j earlier keys of the run, less the `a` of those
  // keys that were among the p. By the LRU stack property it hits iff that
  // is below n, so a key with j >= n is a guaranteed miss. The row then
  // holds the last n keys, k_{m-1} first. Returns the hits as a mask, bit j
  // for k_j.
  [[gnu::always_inline]] static std::uint64_t SettleFullSetRow(
      std::uint64_t* row, unsigned n, std::uint64_t first, std::uint64_t m,
      unsigned set_shift) {
    std::uint64_t hits = 0;
    std::uint64_t above = 0;  // bit j: k_j sits above the current depth
#pragma GCC unroll 16
    for (unsigned depth = 0; depth < n; ++depth) {
      // Unsigned, so tags below `first` and empty ways fall out too.
      const std::uint64_t distance = row[depth] - first;
      if (distance >= (std::uint64_t{n} << set_shift)) continue;
      const auto j = static_cast<unsigned>(distance >> set_shift);
      const unsigned a = std::popcount(above & ((1ULL << j) - 1));
      if (depth + j - a < n) hits |= 1ULL << j;
      above |= 1ULL << j;
    }
#pragma GCC unroll 16
    for (unsigned depth = 0; depth < n; ++depth) {
      row[depth] = first + ((m - 1 - depth) << set_shift);
    }
    return hits;
  }

  std::uint64_t mask_;
  unsigned set_shift_;
  unsigned ways_;
  std::vector<std::uint64_t> tags_;  // sets x ways, row-major
};

}  // namespace svagc::memsim
