#include "verify/graph_digest.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <vector>

#include "runtime/jvm.h"

namespace svagc::verify {

std::uint64_t DigestReachableGraph(rt::Jvm& jvm) {
  sim::AddressSpace& as = jvm.address_space();

  // Pass 1: canonical ids by BFS first-visit order, 1-based (0 = null).
  std::unordered_map<rt::vaddr_t, std::uint64_t> id;
  std::vector<rt::vaddr_t> order;
  std::deque<rt::vaddr_t> queue;
  const auto visit = [&](rt::vaddr_t addr) -> std::uint64_t {
    if (addr == 0) return 0;
    const auto [it, inserted] = id.emplace(addr, order.size() + 1);
    if (inserted) {
      order.push_back(addr);
      queue.push_back(addr);
    }
    return it->second;
  };

  GraphDigestBuilder builder;
  std::vector<std::uint64_t> root_ids;
  jvm.roots().ForEachSlot(
      [&](rt::vaddr_t& slot) { root_ids.push_back(visit(slot)); });
  for (const std::uint64_t root : root_ids) builder.AddRoot(root);

  while (!queue.empty()) {
    const rt::vaddr_t addr = queue.front();
    queue.pop_front();
    rt::ObjectView view(as, addr);
    const std::uint32_t refs = view.num_refs();
    for (std::uint32_t i = 0; i < refs; ++i) visit(view.ref(i));
  }

  // Pass 2: fold nodes in canonical order (ids are now all assigned).
  std::vector<std::uint64_t> ref_ids;
  std::vector<std::uint64_t> payload;
  for (const rt::vaddr_t addr : order) {
    rt::ObjectView view(as, addr);
    const std::uint32_t refs = view.num_refs();
    ref_ids.clear();
    for (std::uint32_t i = 0; i < refs; ++i) {
      const rt::vaddr_t target = view.ref(i);
      ref_ids.push_back(target == 0 ? 0 : id.at(target));
    }
    // The payload one page chunk at a time: a word-by-word read would walk
    // the page table once per word.
    const rt::vaddr_t begin = addr + rt::kHeaderBytes + 8ULL * refs;
    const rt::vaddr_t end = addr + view.size();
    payload.resize((end - begin) / 8);
    auto* out = reinterpret_cast<std::byte*>(payload.data());
    for (rt::vaddr_t cursor = begin; cursor < end;) {
      const rt::vaddr_t page_end =
          (cursor & ~(sim::kPageSize - 1)) + sim::kPageSize;
      const std::uint64_t chunk = std::min(page_end, end) - cursor;
      std::memcpy(out, as.RawPtr(cursor), chunk);
      out += chunk;
      cursor += chunk;
    }
    builder.AddNode(view.type_id(), refs, ref_ids, payload);
  }
  return builder.digest();
}

}  // namespace svagc::verify
