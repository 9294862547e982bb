// Shared helpers for the SVAGC test suites.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/move_object.h"
#include "runtime/jvm.h"
#include "simkernel/swapva.h"

namespace svagc::testing {

// A self-contained simulated machine + kernel + physical memory bundle so
// tests can build JVMs with two lines.
struct SimBundle {
  explicit SimBundle(unsigned cores = 4,
                     std::uint64_t phys_bytes = 256ULL << 20,
                     const sim::CostProfile& profile =
                         sim::ProfileXeonGold6130())
      : machine(cores, profile), kernel(machine), phys(phys_bytes) {}

  sim::Machine machine;
  sim::Kernel kernel;
  sim::PhysicalMemory phys;
};

// Structural checksum of everything reachable from the roots: hashes object
// shape (size, type, ref fan-out) and payload words in depth-first order.
// Deliberately independent of addresses, so the checksum is invariant under
// compaction — the fundamental correctness property of every collector.
inline std::uint64_t ChecksumReachable(rt::Jvm& jvm) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  std::unordered_set<rt::vaddr_t> visited;
  std::vector<rt::vaddr_t> stack;
  jvm.roots().ForEachSlot([&](rt::vaddr_t& slot) { stack.push_back(slot); });
  while (!stack.empty()) {
    const rt::vaddr_t addr = stack.back();
    stack.pop_back();
    if (!visited.insert(addr).second) continue;
    rt::ObjectView view = jvm.View(addr);
    mix(view.size());
    mix(view.type_id());
    mix(view.num_refs());
    const std::uint64_t words = view.data_words();
    // Sample the payload: all words for small objects, strided for large.
    const std::uint64_t stride = words > 512 ? words / 512 : 1;
    for (std::uint64_t i = 0; i < words; i += stride) mix(view.data_word(i));
    if (words > 0) mix(view.data_word(words - 1));
    for (std::uint32_t r = 0; r < view.num_refs(); ++r) {
      const rt::vaddr_t target = view.ref(r);
      mix(target != 0);  // shape, not address
      if (target != 0) stack.push_back(target);
    }
  }
  return hash;
}

// Moves `objects` through `mover` into the space starting at `to_space`,
// laid out in input order by the heap's rule (rt::Heap::Place), then
// flushes the mover. Returns each object's destination, in input order.
inline std::vector<rt::vaddr_t> MoveToSpace(
    rt::Jvm& jvm, core::ObjectMover& mover, sim::CpuContext& ctx,
    const std::vector<rt::vaddr_t>& objects, rt::vaddr_t to_space) {
  std::vector<rt::vaddr_t> destinations;
  rt::vaddr_t top = to_space;
  for (const rt::vaddr_t src : objects) {
    const std::uint64_t size = jvm.View(src).size();
    const rt::Heap::Placement place = jvm.heap().Place(size, top);
    mover.Move(ctx, src, place.dst, size);
    destinations.push_back(place.dst);
    top = place.next;
  }
  mover.Flush(ctx);
  return destinations;
}

}  // namespace svagc::testing
