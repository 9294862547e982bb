// Known-zero frames (PhysicalMemory::KnownZero) and zero far slots
// (FarMemory::StoreZero): seeded random operations drive every writer of
// frame and slot bytes over a small heap, and after each one the heap's
// virtual bytes must equal a shadow array and every frame flagged known
// zero must hold only zeros. A writer that forgets to clear a flag, or a
// zeroing pass that flags a partly written frame, leaves flagged bytes that
// are not zero, and a later ZeroBytes or swap-in would skip a copy or
// memset it needed. Both translation backends run, each with a far tier
// below full residency, so eviction, the fault path (with and without an
// overwrite intent) and raw writes into swapped pages are in play. The
// shadow check reads swapped pages through RawPtr, so a zero slot is read
// as the shared zero page.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "runtime/heap_snapshot.h"
#include "runtime/jvm.h"
#include "simkernel/swapva.h"
#include "support/rng.h"

namespace svagc {
namespace {

using sim::CpuContext;
using sim::frame_t;
using sim::kPageShift;
using sim::kPageSize;
using sim::TranslationBackend;

constexpr std::uint64_t kPages = 24;
constexpr std::uint64_t kBytes = kPages << kPageShift;
constexpr std::uint64_t kResidentLimit = 16;  // residency 2/3
constexpr int kOps = 3000;

bool AllZero(const std::byte* bytes, std::uint64_t n) {
  return std::all_of(bytes, bytes + n,
                     [](std::byte b) { return b == std::byte{0}; });
}

rt::JvmConfig SmallHeap() {
  rt::JvmConfig config;
  config.heap.capacity = kBytes;
  config.gc_threads = 1;
  return config;
}

class KnownZero : public ::testing::TestWithParam<TranslationBackend> {
 protected:
  KnownZero()
      : machine_(2, sim::ProfileXeonGold6130(), GetParam()),
        kernel_(machine_),
        phys_(kBytes + (8 << kPageShift)),
        jvm_(machine_, phys_, kernel_, SmallHeap()),
        as_(jvm_.address_space()),
        base_(jvm_.heap().base()),
        ctx_(machine_, 0),
        shadow_(kBytes) {
    // Start from known, mostly non-zero bytes: a fresh backing is
    // indeterminate, and no frame is flagged yet.
    for (std::uint64_t i = 0; i < kBytes; i += 8) {
      const std::uint64_t word = rng_.NextU64();
      as_.WriteWord(base_ + i, word);
      std::memcpy(shadow_.data() + i, &word, 8);
    }
    sim::FarTierConfig tier;
    tier.resident_limit_pages = kResidentLimit;
    as_.EnableFarTier(kernel_, ctx_, tier);
  }

  std::uint64_t Word() { return rng_.NextBelow(2) == 0 ? 0 : rng_.NextU64(); }
  sim::vaddr_t WordAddr() { return base_ + 8 * rng_.NextBelow(kBytes / 8); }
  sim::vaddr_t Page(std::uint64_t i) { return base_ + (i << kPageShift); }
  std::uint64_t Vpn(std::uint64_t i) { return (base_ >> kPageShift) + i; }
  sim::FarTier& tier() { return *as_.far_tier(); }
  sim::Pte PteAt(std::uint64_t i) {
    return as_.translation().LookupPte(Vpn(i));
  }

  // A swapped page, searched from a random start; kPages when none is.
  std::uint64_t SwappedPage() {
    const std::uint64_t start = rng_.NextBelow(kPages);
    for (std::uint64_t k = 0; k < kPages; ++k) {
      const std::uint64_t p = (start + k) % kPages;
      if (PteAt(p).swapped()) return p;
    }
    return kPages;
  }

  // Demotes page i if it is resident. The slot must be a zero slot exactly
  // when the frame was known zero.
  void Evict(std::uint64_t i) {
    const auto frame = as_.translation().Lookup(Vpn(i));
    if (!frame.has_value()) return;
    const bool zero = phys_.KnownZero(*frame);
    if (!tier().SwapOut(ctx_, Vpn(i), /*hook=*/nullptr)) return;
    ASSERT_EQ(tier().SlotKnownZero(PteAt(i).swap_slot()), zero) << "page " << i;
    ++(zero ? zero_slot_evictions_ : copy_evictions_);
  }

  void WriteWord(bool hw) {
    const sim::vaddr_t addr = WordAddr();
    const std::uint64_t value = Word();
    if (hw) {
      as_.WriteWordHw(ctx_, addr, value);
    } else {
      as_.WriteWord(addr, value);
    }
    std::memcpy(&shadow_[addr - base_], &value, 8);
  }

  // Unaligned, often overlapping (forward or backward), up to three pages.
  void Copy() {
    const std::uint64_t len = 1 + rng_.NextBelow(3 * kPageSize);
    const std::uint64_t src = rng_.NextBelow(kBytes - len + 1);
    std::uint64_t dst = rng_.NextBelow(kBytes - len + 1);
    if (rng_.NextBelow(2) == 0) {
      const std::uint64_t delta = 1 + rng_.NextBelow(len);
      dst = rng_.NextBelow(2) == 0 ? src + std::min(delta, kBytes - len - src)
                                   : src - std::min(delta, src);
    }
    as_.CopyBytes(ctx_, base_ + dst, base_ + src, len);
    std::memmove(&shadow_[dst], &shadow_[src], len);
  }

  // Partial chunks, whole pages, or an unaligned run whose interior pages
  // are whole.
  void Zero() {
    std::uint64_t start;
    std::uint64_t len;
    switch (rng_.NextBelow(3)) {
      case 0:
        len = 1 + rng_.NextBelow(kPageSize - 1);
        start = rng_.NextBelow(kBytes - len + 1);
        break;
      case 1:
        len = (1 + rng_.NextBelow(4)) << kPageShift;
        start = rng_.NextBelow(kPages - (len >> kPageShift) + 1) << kPageShift;
        break;
      default:
        len = 2 * kPageSize + rng_.NextBelow(2 * kPageSize);
        start = rng_.NextBelow(kBytes - len + 1);
        break;
    }
    const std::uint64_t first = start >> kPageShift;
    const std::uint64_t last = (start + len - 1) >> kPageShift;
    for (std::uint64_t p = first; p <= last; ++p) {
      const auto frame = as_.translation().Lookup((base_ >> kPageShift) + p);
      if (frame.has_value() && phys_.KnownZero(*frame)) ++known_zero_hits_;
    }
    as_.ZeroBytes(ctx_, base_ + start, len);
    std::memset(&shadow_[start], 0, len);
  }

  // Disjoint PTE exchange; scrub_source zeroes what lands under `a`.
  void Swap() {
    const std::uint64_t pages = 1 + rng_.NextBelow(3);
    std::uint64_t a = rng_.NextBelow(kPages - 2 * pages + 1);
    std::uint64_t b = a + pages + rng_.NextBelow(kPages - 2 * pages - a + 1);
    if (rng_.NextBelow(2) == 0) std::swap(a, b);
    sim::SwapVaOptions opts;
    opts.scrub_source = rng_.NextBelow(2) == 0;
    ASSERT_EQ(kernel_.SysSwapVa(as_, ctx_, Page(a), Page(b), pages, opts),
              sim::SysStatus::kOk);
    std::swap_ranges(shadow_.begin() + (a << kPageShift),
                     shadow_.begin() + ((a + pages) << kPageShift),
                     shadow_.begin() + (b << kPageShift));
    if (opts.scrub_source) {
      std::fill_n(shadow_.begin() + (a << kPageShift), pages << kPageShift,
                  std::byte{0});
    }
  }

  void EvictOrFault() {
    const std::uint64_t vpn = (base_ >> kPageShift) + rng_.NextBelow(kPages);
    if (as_.translation().LookupPte(vpn).swapped()) {
      kernel_.SysHandleFault(as_, ctx_, vpn << kPageShift);
    } else {
      as_.far_tier()->SwapOut(ctx_, vpn, /*hook=*/nullptr);
    }
  }

  // Several pages out, then back in another order, over a mix of zeroed
  // (flagged) and written frames: zero slots land on whatever frames the
  // allocator hands back, flagged or not.
  void EvictFaultCycle() {
    std::vector<std::uint64_t> pages;
    for (std::uint64_t n = 1 + rng_.NextBelow(4); n > 0; --n) {
      const std::uint64_t p = rng_.NextBelow(kPages);
      if (rng_.NextBelow(2) == 0) {
        as_.ZeroBytes(ctx_, Page(p), kPageSize);
        std::fill_n(shadow_.begin() + (p << kPageShift), kPageSize,
                    std::byte{0});
      }
      ASSERT_NO_FATAL_FAILURE(Evict(p));
      pages.push_back(p);
    }
    std::reverse(pages.begin(), pages.end());
    std::swap(pages.front(), pages[rng_.NextBelow(pages.size())]);
    for (const std::uint64_t p : pages) {
      if (!PteAt(p).swapped()) continue;
      if (tier().SlotKnownZero(PteAt(p).swap_slot())) ++zero_slot_faults_;
      kernel_.SysHandleFault(as_, ctx_, Page(p));
    }
  }

  // A word through WriteWord or a byte run through RawWritePtr into a
  // swapped page: the write lands in the far slot, and a zero slot turns
  // into zero-filled bytes first.
  void WriteSwapped() {
    const std::uint64_t p = SwappedPage();
    if (p == kPages) return;
    const std::uint64_t slot = PteAt(p).swap_slot();
    const bool zero = tier().SlotKnownZero(slot);
    const std::uint64_t faults = tier().faults();
    if (rng_.NextBelow(2) == 0) {
      const sim::vaddr_t addr = Page(p) + 8 * rng_.NextBelow(kPageSize / 8);
      const std::uint64_t value = Word();
      as_.WriteWord(addr, value);
      std::memcpy(&shadow_[addr - base_], &value, 8);
    } else {
      const std::uint64_t offset = rng_.NextBelow(kPageSize);
      const std::uint64_t len = 1 + rng_.NextBelow(kPageSize - offset);
      const auto value = static_cast<std::byte>(rng_.NextBelow(256));
      std::memset(as_.RawWritePtr(Page(p) + offset), static_cast<int>(value),
                  len);
      std::fill_n(shadow_.begin() + (p << kPageShift) + offset, len, value);
    }
    ASSERT_TRUE(PteAt(p).swapped());
    ASSERT_EQ(PteAt(p).swap_slot(), slot);
    ASSERT_FALSE(tier().SlotKnownZero(slot));
    ASSERT_EQ(tier().faults(), faults);
    if (zero) ++materializing_writes_;
  }

  // ZeroBytes over an unaligned run of three to six pages after evicting
  // its partly covered head and tail pages and some of its whole interior
  // pages: the interior ones fault in with the overwrite intent, the head
  // and tail with their contents.
  void ZeroRaggedSwapped() {
    const std::uint64_t span = 3 + rng_.NextBelow(4);
    const std::uint64_t first = rng_.NextBelow(kPages - span + 1);
    const std::uint64_t last = first + span - 1;
    const std::uint64_t start =
        (first << kPageShift) + 1 + rng_.NextBelow(kPageSize - 1);
    const std::uint64_t end =
        (last << kPageShift) + 1 + rng_.NextBelow(kPageSize - 1);
    for (std::uint64_t p = first; p <= last; ++p) {
      if (p == first || p == last || rng_.NextBelow(2) == 0) {
        ASSERT_NO_FATAL_FAILURE(Evict(p));
      }
      if (!PteAt(p).swapped()) continue;
      ++((p == first || p == last) ? partial_faults_ : overwrite_faults_);
    }
    as_.ZeroBytes(ctx_, base_ + start, end - start);
    std::memset(&shadow_[start], 0, end - start);
    for (std::uint64_t p = first; p <= last; ++p) {
      ASSERT_TRUE(PteAt(p).present()) << "page " << p;
    }
  }

  // A snapshot of random length whose words are zero, sparse or dense.
  void Restore() {
    rt::HeapSnapshot snapshot = rt::SnapshotHeap(jvm_);
    snapshot.top = base_ + 8 * (1 + rng_.NextBelow(kBytes / 8));
    snapshot.bytes.assign(snapshot.top - base_, 0);
    const std::uint64_t one_in = std::uint64_t{1} << (3 * rng_.NextBelow(3));
    for (std::uint64_t i = 0; i < snapshot.bytes.size(); i += 8) {
      if (rng_.NextBelow(one_in) != 0) continue;
      const std::uint64_t word = rng_.NextU64();
      std::memcpy(&snapshot.bytes[i], &word, 8);
    }
    rt::RestoreHeap(jvm_, snapshot);
    std::memcpy(shadow_.data(), snapshot.bytes.data(), snapshot.bytes.size());
  }

  void ExpectConsistent(int op) {
    for (std::uint64_t p = 0; p < kPages; ++p) {
      ASSERT_EQ(std::memcmp(as_.RawPtr(Page(p)), &shadow_[p << kPageShift],
                            kPageSize),
                0)
          << "page " << p << " after op " << op;
    }
    std::uint64_t flagged = 0;
    for (frame_t f = 0; f < phys_.total_frames(); ++f) {
      if (!phys_.KnownZero(f)) continue;
      ++flagged;
      ASSERT_TRUE(AllZero(phys_.FrameData(f), kPageSize))
          << "frame " << f << " flagged known zero after op " << op;
    }
    max_flagged_ = std::max(max_flagged_, flagged);
    for (std::uint64_t p = 0; p < kPages; ++p) {
      if (!PteAt(p).swapped() || !tier().SlotKnownZero(PteAt(p).swap_slot())) {
        continue;
      }
      ASSERT_TRUE(AllZero(&shadow_[p << kPageShift], kPageSize))
          << "page " << p << " in a zero slot after op " << op;
    }
  }

  sim::Machine machine_;
  sim::Kernel kernel_;
  sim::PhysicalMemory phys_;
  rt::Jvm jvm_;
  sim::AddressSpace& as_;
  const sim::vaddr_t base_;
  CpuContext ctx_;
  Rng rng_{0x6B7A65726FULL};
  std::vector<std::byte> shadow_;
  std::uint64_t known_zero_hits_ = 0;  // page chunks zeroed while flagged
  std::uint64_t max_flagged_ = 0;
  // Zero-slot events: known-zero frames evicted as flags and other frames
  // copied, zero slots faulted back in, raw writes into zero slots, and
  // swapped pages under ZeroBytes, whole and partly covered.
  std::uint64_t zero_slot_evictions_ = 0;
  std::uint64_t copy_evictions_ = 0;
  std::uint64_t zero_slot_faults_ = 0;
  std::uint64_t materializing_writes_ = 0;
  std::uint64_t overwrite_faults_ = 0;
  std::uint64_t partial_faults_ = 0;
};

TEST_P(KnownZero, RandomWritersMatchShadowAndFlaggedFramesHoldZeros) {
  for (int op = 0; op < kOps; ++op) {
    switch (rng_.NextBelow(11)) {
      case 0:
        WriteWord(/*hw=*/false);
        break;
      case 1:
        WriteWord(/*hw=*/true);
        break;
      case 2:
        Copy();
        break;
      case 3:
      case 4:
        Zero();
        break;
      case 5:
        Swap();
        break;
      case 6:
        EvictOrFault();
        break;
      case 7:
        ASSERT_NO_FATAL_FAILURE(EvictFaultCycle());
        break;
      case 8:
        ASSERT_NO_FATAL_FAILURE(WriteSwapped());
        break;
      case 9:
        ASSERT_NO_FATAL_FAILURE(ZeroRaggedSwapped());
        break;
      default:
        if (rng_.NextBelow(4) == 0) Restore();
        break;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectConsistent(op));
  }
  // The run must have flagged frames and zeroed over them, or the skip
  // path went untested.
  EXPECT_GT(max_flagged_, 0u);
  EXPECT_GT(known_zero_hits_, 0u);
  EXPECT_GT(as_.far_tier()->faults(), 0u);
  EXPECT_GT(as_.far_tier()->evictions(), 0u);
  // Every zero-slot path must have run: stores, fills, materializing
  // writes, and both kinds of fault under ZeroBytes.
  EXPECT_GT(zero_slot_evictions_, 0u);
  EXPECT_GT(copy_evictions_, 0u);
  EXPECT_GT(zero_slot_faults_, 0u);
  EXPECT_GT(materializing_writes_, 0u);
  EXPECT_GT(overwrite_faults_, 0u);
  EXPECT_GT(partial_faults_, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, KnownZero,
    ::testing::Values(TranslationBackend::kRadix, TranslationBackend::kHashed),
    [](const ::testing::TestParamInfo<TranslationBackend>& info) {
      return sim::TranslationBackendName(info.param);
    });

}  // namespace
}  // namespace svagc
