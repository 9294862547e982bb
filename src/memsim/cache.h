// Trace-driven set-associative cache model (one level).
//
// Used by the Table III harness to compare the cache footprint of
// memmove-based compaction against SwapVA: the memmove path streams every
// byte through the hierarchy, the swap path touches only PTE words.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "memsim/lru_tags.h"
#include "support/check.h"

namespace svagc::memsim {

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  unsigned ways = 8;
  unsigned line_bytes = 64;
};

// Lines [begin, end), by line number (address >> line shift).
struct LineRun {
  std::uint64_t begin;
  std::uint64_t end;
};

class Cache {
 public:
  // The set count (size / line / ways) must be a power of two.
  explicit Cache(const CacheConfig& config);

  // Returns true on hit; on miss the line is filled (allocate-on-miss for
  // both reads and writes, write-back ignored — miss counting only).
  bool Access(std::uint64_t address) {
    return AccessLine(address >> line_shift_);
  }
  bool AccessLine(std::uint64_t line) {
    const bool hit = tags_.Probe(line);
    ++(hit ? hits_ : misses_);
    return hit;
  }

  // AccessLine() on every line of `runs` in order, with the same counters
  // and final state, appending the lines that miss to `misses` (merged into
  // runs; may be null). The runs must be non-empty, ascending and disjoint,
  // as the lines of one ranged access and the misses of a level above it
  // are; each run is then walked set by set (LruTags::ProbeRun). A line of
  // the call can hit only if its set held it when the call began, so at
  // most sets x ways of them hit.
  void AccessDistinct(const std::vector<LineRun>& runs,
                      std::vector<LineRun>* misses);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }
  double MissRatePercent() const {
    const std::uint64_t n = accesses();
    return n == 0 ? 0.0 : 100.0 * static_cast<double>(misses_) /
                              static_cast<double>(n);
  }
  void ResetCounters() { hits_ = misses_ = 0; }

  const CacheConfig& config() const { return config_; }
  unsigned line_shift() const { return line_shift_; }
  // Lines the cache holds: sets x ways.
  std::uint64_t capacity_lines() const { return tags_.sets() * tags_.ways(); }

 private:
  CacheConfig config_;
  unsigned line_shift_;
  LruTags tags_;
  // AccessDistinct's hits, sets x ways of room; left uninitialized, so an
  // LLC, which collects none, never touches it.
  std::unique_ptr<std::uint64_t[]> hit_lines_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace svagc::memsim
