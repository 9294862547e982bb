// Alignment arithmetic shared by the allocator, the page tables and the GC.
#pragma once

#include <cstdint>

#include "support/check.h"

namespace svagc {

constexpr bool IsPowerOfTwo(std::uint64_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

// Rounds `value` up to the next multiple of `alignment` (a power of two).
constexpr std::uint64_t AlignUp(std::uint64_t value, std::uint64_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

// Rounds `value` down to the previous multiple of `alignment` (a power of two).
constexpr std::uint64_t AlignDown(std::uint64_t value,
                                  std::uint64_t alignment) {
  return value & ~(alignment - 1);
}

constexpr bool IsAligned(std::uint64_t value, std::uint64_t alignment) {
  return (value & (alignment - 1)) == 0;
}

// Ceiling division for unsigned integers.
constexpr std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

static_assert(AlignUp(0, 4096) == 0);
static_assert(AlignUp(1, 4096) == 4096);
static_assert(AlignUp(4096, 4096) == 4096);
static_assert(AlignDown(4097, 4096) == 4096);
static_assert(CeilDiv(1, 4096) == 1);
static_assert(CeilDiv(4096, 4096) == 1);
static_assert(CeilDiv(4097, 4096) == 2);

}  // namespace svagc
