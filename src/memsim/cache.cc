#include "memsim/cache.h"

#include <algorithm>
#include <bit>

namespace svagc::memsim {

namespace {

std::uint64_t SetsOf(const CacheConfig& config) {
  // A one-byte line could produce the all-ones line number LruTags
  // reserves for empty ways.
  SVAGC_CHECK(config.line_bytes >= 2 && std::has_single_bit(config.line_bytes));
  const std::uint64_t lines = config.size_bytes / config.line_bytes;
  SVAGC_CHECK(config.ways >= 1 && lines >= config.ways &&
              lines % config.ways == 0);
  return lines / config.ways;
}

// Collects missed lines as runs, merging each into the one before when
// they are contiguous. The open run lives in locals until the next gap.
class RunBuilder {
 public:
  explicit RunBuilder(std::vector<LineRun>* runs) : runs_(runs) {
    if (runs_ != nullptr) runs_->clear();
  }
  ~RunBuilder() { Flush(); }

  void Add(std::uint64_t begin, std::uint64_t end) {
    if (begin != end_) {
      Flush();
      begin_ = begin;
    }
    end_ = end;
  }

 private:
  void Flush() {
    if (runs_ != nullptr && begin_ != end_) runs_->push_back({begin_, end_});
  }

  std::vector<LineRun>* runs_;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = 0;
};

}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(config),
      line_shift_(static_cast<unsigned>(std::countr_zero(config.line_bytes))),
      tags_(SetsOf(config), config.ways) {
  // Allocated by the constructing thread, not by whichever GC worker makes
  // the first long access.
  taken_.reserve(tags_.sets());
}

void Cache::AccessDistinct(const std::vector<LineRun>& runs,
                           std::vector<LineRun>* misses) {
  RunBuilder missed(misses);
  if (runs.empty()) return;
  std::uint64_t lowest = runs.front().begin;
  std::uint64_t highest = runs.front().end;
  for (const LineRun& run : runs) {
    lowest = std::min(lowest, run.begin);
    highest = std::max(highest, run.end);
  }
  // Lines within sets x ways consecutive line numbers give no set more than
  // `ways` of them, so none can be a guaranteed miss: skip the counting.
  const bool count_sets = highest - lowest > capacity_lines();
  const unsigned ways = tags_.ways();
  const std::uint64_t sets = tags_.sets();
  if (count_sets) taken_.assign(sets, 0);
  std::uint64_t full_sets = 0;
  std::uint64_t probed = 0;
  std::uint64_t hits = 0;
  for (const LineRun& run : runs) {
    std::uint64_t line = run.begin;
    for (; line < run.end && full_sets < sets; ++line) {
      if (count_sets) {
        unsigned& taken = taken_[tags_.SetOf(line)];
        if (taken == ways) {
          MissRun(line, line + 1);
          missed.Add(line, line + 1);
          continue;
        }
        if (++taken == ways) ++full_sets;
      }
      ++probed;
      if (tags_.Probe(line)) {
        ++hits;
      } else {
        missed.Add(line, line + 1);
      }
    }
    if (line < run.end) {
      MissRun(line, run.end);
      missed.Add(line, run.end);
    }
  }
  hits_ += hits;
  misses_ += probed - hits;
}

void Cache::MissRun(std::uint64_t begin, std::uint64_t end) {
  misses_ += end - begin;
  const std::uint64_t keep = capacity_lines();
  for (std::uint64_t line = end - begin > keep ? end - keep : begin;
       line < end; ++line) {
    tags_.Fill(line);
  }
}

}  // namespace svagc::memsim
