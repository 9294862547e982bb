#include "simkernel/phys_mem.h"

#include <algorithm>
#include <functional>

#include "support/align.h"

namespace svagc::sim {

PhysicalMemory::PhysicalMemory(std::uint64_t bytes)
    : total_frames_(CeilDiv(bytes, kPageSize)),
      backing_(new std::byte[total_frames_ << kPageShift]),
      known_zero_(
          std::make_unique<std::atomic<std::uint8_t>[]>(total_frames_)) {
  SVAGC_CHECK(total_frames_ > 0);
  free_list_.reserve(total_frames_);
  // Push in reverse so the first allocations get the lowest frame numbers;
  // keeps traces and tests readable.
  for (std::uint64_t i = total_frames_; i > 0; --i) free_list_.push_back(i - 1);
}

frame_t PhysicalMemory::AllocFrame() {
  SpinLockGuard guard(lock_);
  SVAGC_CHECK(!free_list_.empty());
  const frame_t frame = free_list_.back();
  free_list_.pop_back();
  return frame;
}

frame_t PhysicalMemory::AllocContiguous(std::uint64_t count) {
  SVAGC_CHECK(count > 0);
  SpinLockGuard guard(lock_);
  SVAGC_CHECK(free_list_.size() >= count);
  // Keep the allocator's lowest-frame-first discipline: sorted descending,
  // the back of the list stays the lowest free frame for AllocFrame.
  std::sort(free_list_.begin(), free_list_.end(), std::greater<frame_t>());
  if (count == 1) {
    const frame_t frame = free_list_.back();
    free_list_.pop_back();
    return frame;
  }
  const std::size_t n = free_list_.size();
  // Descending order puts consecutive frames at consecutive indices; walk
  // from the low end (back) and take the first run of `count`.
  std::size_t low_idx = n - 1;  // index of the current run's base frame
  std::size_t run = 1;
  for (std::size_t j = n - 1; j > 0; --j) {
    if (free_list_[j - 1] == free_list_[j] + 1) {
      ++run;
    } else {
      low_idx = j - 1;
      run = 1;
    }
    if (run == count) {
      const frame_t base = free_list_[low_idx];
      free_list_.erase(free_list_.begin() + static_cast<std::ptrdiff_t>(j - 1),
                       free_list_.begin() +
                           static_cast<std::ptrdiff_t>(low_idx + 1));
      return base;
    }
  }
  SVAGC_CHECK(false && "no contiguous run of free frames");
  return kInvalidFrame;
}

void PhysicalMemory::FreeFrame(frame_t frame) {
  SVAGC_DCHECK(frame < total_frames_);
  SpinLockGuard guard(lock_);
  free_list_.push_back(frame);
}

std::uint64_t PhysicalMemory::free_frames() const {
  SpinLockGuard guard(lock_);
  return free_list_.size();
}

}  // namespace svagc::sim
