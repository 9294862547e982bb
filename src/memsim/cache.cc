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
  const std::uint64_t capacity = capacity_lines();
  hit_lines_ = std::make_unique_for_overwrite<std::uint64_t[]>(capacity);
}

void Cache::AccessDistinct(const std::vector<LineRun>& runs,
                           std::vector<LineRun>* misses) {
  std::uint64_t lines = 0;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const LineRun& run = runs[i];
    // The set-by-set walk relies on each set seeing its lines in order.
    SVAGC_DCHECK(run.begin < run.end &&
                 (i == 0 || runs[i - 1].end <= run.begin));
    lines += run.end - run.begin;
    tags_.ProbeRun(run.begin, run.end, [&](std::uint64_t line) {
      // Only a line the cache held when the call began can hit.
      SVAGC_DCHECK(hits < capacity_lines());
      if (misses != nullptr) hit_lines_[hits] = line;
      ++hits;
    });
  }
  hits_ += hits;
  misses_ += lines - hits;
  if (misses == nullptr) return;
  // Hits arrive set by set; in line order, the gaps between them miss.
  std::uint64_t* hit = hit_lines_.get();
  std::uint64_t* const hits_end = hit + hits;
  std::sort(hit, hits_end);
  RunBuilder missed(misses);
  for (const LineRun& run : runs) {
    std::uint64_t line = run.begin;
    for (; hit != hits_end && *hit < run.end; ++hit) {
      if (line < *hit) missed.Add(line, *hit);
      line = *hit + 1;
    }
    if (line < run.end) missed.Add(line, run.end);
  }
}

}  // namespace svagc::memsim
