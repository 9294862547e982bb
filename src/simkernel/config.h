// Architectural constants for the simulated x86-64 memory subsystem.
#pragma once

#include <cstdint>

namespace svagc::sim {

inline constexpr std::uint64_t kPageShift = 12;
inline constexpr std::uint64_t kPageSize = 1ULL << kPageShift;  // 4 KiB

// x86-64 4-level paging: 9 index bits per level, 12 offset bits.
inline constexpr std::uint64_t kLevelBits = 9;
inline constexpr std::uint64_t kEntriesPerTable = 1ULL << kLevelBits;  // 512

// Virtual-page-number field widths (vpn = vaddr >> kPageShift): the PTE
// index is vpn bits 0..8, PMD 9..17, PUD 18..26, P4D 27..35, PGD 36..44.
inline constexpr std::uint64_t kPteIndexShift = 0;
inline constexpr std::uint64_t kPmdIndexShift = kLevelBits;
inline constexpr std::uint64_t kPudIndexShift = 2 * kLevelBits;
inline constexpr std::uint64_t kP4dIndexShift = 3 * kLevelBits;
inline constexpr std::uint64_t kPgdIndexShift = 4 * kLevelBits;

inline constexpr std::uint64_t kIndexMask = kEntriesPerTable - 1;

// 2 MiB huge pages: one PMD entry maps kPagesPerHuge base pages.
inline constexpr std::uint64_t kHugePageShift = kPageShift + kLevelBits;  // 21
inline constexpr std::uint64_t kHugePageSize = 1ULL << kHugePageShift;  // 2 MiB
inline constexpr std::uint64_t kPagesPerHuge = kEntriesPerTable;        // 512

using vaddr_t = std::uint64_t;
using frame_t = std::uint64_t;  // physical frame number

inline constexpr frame_t kInvalidFrame = ~0ULL;

}  // namespace svagc::sim
