// Simulated physical memory: a real backing buffer carved into 4 KiB frames.
//
// Frames hold real bytes. The memmove GC path copies these bytes for real;
// the SwapVA path swaps only PTEs, after which virtual addresses resolve to
// different frames — the data genuinely moves without being copied, exactly
// the zero-copy property the paper exploits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "simkernel/config.h"
#include "support/check.h"
#include "support/spin_lock.h"

namespace svagc::sim {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::uint64_t bytes);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // Allocates one frame; aborts on exhaustion (the caller sizes physical
  // memory to the experiment; OOM here is a harness bug, not a GC event).
  frame_t AllocFrame();
  void FreeFrame(frame_t frame);

  // Allocates `count` physically-contiguous frames and returns the base —
  // the backing a 2 MiB PMD leaf needs. Setup-time only (address-space
  // construction, like hugetlbfs reservation); aborts when no contiguous
  // run exists. Freed frame-by-frame with FreeFrame.
  frame_t AllocContiguous(std::uint64_t count);

  // Read-only view of a frame's bytes.
  const std::byte* FrameData(frame_t frame) const {
    SVAGC_DCHECK(frame < total_frames_);
    return backing_.get() + (frame << kPageShift);
  }
  // The only writable view of a frame: the caller is about to write its
  // bytes, so the frame stops being known zero.
  std::byte* WritableFrameData(frame_t frame) {
    SVAGC_DCHECK(frame < total_frames_);
    std::atomic<std::uint8_t>& flag = known_zero_[frame];
    // Load first: most writes land on frames already written, and a store
    // would dirty a flag cache line other cores read.
    if (flag.load(std::memory_order_relaxed) != 0) {
      flag.store(0, std::memory_order_relaxed);
    }
    return backing_.get() + (frame << kPageShift);
  }

  // Known-zero frames, a host-only shortcut: a flagged frame holds only
  // zero bytes, so zeroing it again may skip the host memset (never the
  // modeled charge). Every frame starts unflagged, because the backing is
  // indeterminate; WritableFrameData clears the flag, and only a caller
  // that has just zeroed the whole frame sets it. Relaxed ordering
  // suffices: whatever orders two accesses to the same bytes (the
  // collectors' own synchronization) orders their flag accesses too.
  bool KnownZero(frame_t frame) const {
    SVAGC_DCHECK(frame < total_frames_);
    return known_zero_[frame].load(std::memory_order_relaxed) != 0;
  }
  void MarkKnownZero(frame_t frame) {
    SVAGC_DCHECK(frame < total_frames_);
    known_zero_[frame].store(1, std::memory_order_relaxed);
  }

  std::uint64_t total_frames() const { return total_frames_; }
  std::uint64_t free_frames() const;

  // Physical write traffic, maintained by the bulk-copy/zero paths. On a
  // hybrid DRAM/NVM heap this is the wear-limited quantity SwapVA reduces
  // (paper §VI: "replacing costly write operations of NVMs with zero-copying
  // ones"); the NVM-wear ablation bench reads it.
  void NoteBytesWritten(std::uint64_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t total_frames_;
  std::unique_ptr<std::byte[]> backing_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> known_zero_;  // one per frame

  mutable SpinLock lock_;
  std::vector<frame_t> free_list_;
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace svagc::sim
