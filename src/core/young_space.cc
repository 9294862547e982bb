#include "core/young_space.h"

#include <algorithm>

#include "support/align.h"

namespace svagc::core {

bool YoungSpace::Attach(std::uint64_t bytes) {
  SVAGC_CHECK(!attached());
  SVAGC_CHECK(IsAligned(bytes, sim::kPageSize));
  SVAGC_CHECK(bytes >= config_.zone_bytes);
  const rt::vaddr_t chunk = heap_.AllocateTlabChunk(bytes);
  if (chunk == 0) return false;
  base_ = chunk;
  end_ = chunk + bytes;
  heap_.WriteFiller(base_, bytes);
  free_.clear();
  free_[base_] = bytes;
  free_bytes_ = bytes;
  zones_.assign(zones_.size(), Zone{});
  return true;
}

void YoungSpace::Release() {
  SVAGC_CHECK(attached());
  heap_.WriteFiller(base_, extent_bytes());
  Abandon();
}

void YoungSpace::Abandon() {
  SVAGC_CHECK(attached());
  base_ = 0;
  end_ = 0;
  free_.clear();
  free_bytes_ = 0;
  zones_.assign(zones_.size(), Zone{});
}

void YoungSpace::CarveFromFreeRun(
    std::map<rt::vaddr_t, std::uint64_t>::iterator it, rt::vaddr_t base,
    std::uint64_t bytes) {
  const rt::vaddr_t run_base = it->first;
  const std::uint64_t run_len = it->second;
  SVAGC_DCHECK(base >= run_base && base + bytes <= run_base + run_len);
  free_.erase(it);
  const std::uint64_t left = base - run_base;
  const std::uint64_t right = (run_base + run_len) - (base + bytes);
  if (left != 0) {
    free_[run_base] = left;
    heap_.WriteFiller(run_base, left);
  }
  if (right != 0) {
    free_[base + bytes] = right;
    heap_.WriteFiller(base + bytes, right);
  }
  free_bytes_ -= bytes;
}

YoungSpace::Run YoungSpace::AllocateRun(std::uint64_t bytes) {
  SVAGC_DCHECK(attached());
  const std::uint64_t rounded = AlignUp(bytes, sim::kPageSize);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= rounded) {
      const rt::vaddr_t base = it->first;
      CarveFromFreeRun(it, base, rounded);
      return Run{base, rounded};
    }
  }
  return Run{};
}

rt::vaddr_t YoungSpace::AllocateSmall(std::uint64_t bytes,
                                      unsigned logical_thread) {
  SVAGC_DCHECK(bytes <= config_.zone_bytes);
  Zone& zone = zones_[logical_thread % zones_.size()];
  if (!zone.live() || zone.cursor + bytes > zone.end) {
    // Refill: abandon the current zone (its tail is already fillered; the
    // prefix stays as allocated young memory until the next scavenge) and
    // carve a fresh one.
    const Run run = AllocateRun(config_.zone_bytes);
    if (run.base == 0) return 0;
    zone = Zone{run.base, run.base, run.base + run.bytes};
    heap_.WriteFiller(zone.base, run.bytes);
  }
  const rt::vaddr_t addr = zone.cursor;
  zone.cursor += bytes;
  heap_.WriteFiller(zone.cursor, zone.end - zone.cursor);
  return addr;
}

rt::vaddr_t YoungSpace::AllocateRunObject(std::uint64_t bytes) {
  const std::uint64_t rounded = AlignUp(bytes, sim::kPageSize);
  const Run run = AllocateRun(rounded);
  if (run.base == 0) return 0;
  // Make the run parsable before the caller writes the object header: one
  // filler over the whole run (the header overwrites the prefix), plus the
  // tail-slack filler the finished layout keeps.
  heap_.WriteFiller(run.base, run.bytes);
  heap_.WriteFiller(run.base + bytes, run.bytes - bytes);
  return run.base;
}

std::vector<YoungSpace::Run> YoungSpace::FreeRunsSnapshot() const {
  std::vector<Run> runs;
  runs.reserve(free_.size());
  for (const auto& [base, len] : free_) runs.push_back(Run{base, len});
  return runs;
}

void YoungSpace::TakeRun(rt::vaddr_t base, std::uint64_t bytes) {
  SVAGC_DCHECK(IsAligned(base, sim::kPageSize));
  SVAGC_DCHECK(IsAligned(bytes, sim::kPageSize));
  auto it = free_.upper_bound(base);
  SVAGC_CHECK(it != free_.begin());
  --it;
  CarveFromFreeRun(it, base, bytes);
}

void YoungSpace::ResetFreeTo(const std::vector<Run>& keep) {
  SVAGC_CHECK(attached());
  free_.clear();
  free_bytes_ = 0;
  rt::vaddr_t cursor = base_;
  for (const Run& run : keep) {
    SVAGC_DCHECK(run.base >= cursor && run.base + run.bytes <= end_);
    SVAGC_DCHECK(IsAligned(run.base, sim::kPageSize));
    SVAGC_DCHECK(IsAligned(run.bytes, sim::kPageSize));
    if (run.base > cursor) {
      free_[cursor] = run.base - cursor;
      heap_.WriteFiller(cursor, run.base - cursor);
      free_bytes_ += run.base - cursor;
    }
    cursor = run.base + run.bytes;
  }
  if (cursor < end_) {
    free_[cursor] = end_ - cursor;
    heap_.WriteFiller(cursor, end_ - cursor);
    free_bytes_ += end_ - cursor;
  }
  zones_.assign(zones_.size(), Zone{});
}

std::uint64_t YoungSpace::LargestFreeRun() const {
  std::uint64_t largest = 0;
  for (const auto& [base, len] : free_) largest = std::max(largest, len);
  return largest;
}

}  // namespace svagc::core
