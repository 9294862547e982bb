// Bisort (JOlden): bitonic sort over a binary tree of small nodes.
//
// Paper input: 2M entries; scaled 1:128 here (16K nodes). The anti-case for
// SwapVA: the heap is a sea of 48-byte objects linked by references, so
// compaction is all small memmoves and GC time concentrates in marking and
// pointer adjustment.
#include <vector>

#include "workloads/churn_base.h"
#include "workloads/factories.h"

namespace svagc::workloads {

namespace {

constexpr unsigned kNodes = 16 * 1024;
constexpr std::uint64_t kNodeBytes = rt::ObjectBytes(2, 8);  // left,right,key

class BisortWorkload final : public TableWorkload {
 public:
  BisortWorkload()
      : TableWorkload(WorkloadInfo{
            .name = "bisort",
            .display_name = "Bisort",
            .suite = "JOlden",
            .logical_threads = 56,
            .min_heap_bytes = kNodes * kNodeBytes * 2,
            .avg_object_bytes = kNodeBytes,
        }) {}

  void Setup(rt::Jvm& jvm) override {
    table_ = jvm.roots().Add(AllocRefTable(jvm, 1, 0));
    const rt::vaddr_t root = BuildSubtree(jvm, kNodes);
    jvm.WriteRef(jvm.roots().Get(table_), 0, root);
  }

  void Iterate(rt::Jvm& jvm) override {
    // Bitonic phase: walk a random path touching keys (compute), then
    // rebuild one subtree of ~kNodes/16 nodes — JOlden's allocation churn.
    Walk(jvm, jvm.View(jvm.roots().Get(table_)).ref(0), 0);
    const rt::vaddr_t fresh = BuildSubtree(jvm, kNodes / 16);
    // Splice: descend a few levels and replace a child.
    rt::vaddr_t parent = jvm.View(jvm.roots().Get(table_)).ref(0);
    for (int depth = 0; depth < 3; ++depth) {
      rt::ObjectView view = jvm.View(parent);
      const rt::vaddr_t child = view.ref(rng_.NextBelow(2) ? 1 : 0);
      if (child == 0) break;
      parent = child;
    }
    jvm.WriteRef(parent, rng_.NextBelow(2) ? 1 : 0, fresh);
  }

 private:
  // Builds a *balanced* subtree of ~count nodes with the binary-counter
  // forest technique: push leaves, merge equal-height subtrees under a new
  // parent. O(count) allocations, O(log count) live temporaries, and the
  // pending forest roots stay reachable through a rooted scratch table so
  // any allocation-triggered GC sees them (GC-safe).
  rt::vaddr_t BuildSubtree(rt::Jvm& jvm, unsigned count) {
    const rt::vaddr_t scratch_table = AllocRefTable(jvm, 64, NextThread(jvm));
    const rt::RootSet::Handle scratch = jvm.roots().Add(scratch_table);
    std::vector<unsigned> heights;  // host-side mirror of the forest stack

    auto new_node = [&]() {
      const rt::vaddr_t node = jvm.New(kTypeNode, 2, 8, NextThread(jvm));
      jvm.View(node).set_data_word(0, rng_.NextU64());
      return node;
    };
    auto combine = [&]() {
      // Merge the two topmost (equal-height) forest roots under a parent.
      const rt::vaddr_t parent = new_node();
      const rt::vaddr_t scratch_addr = jvm.roots().Get(scratch);
      rt::ObjectView scratch_view = jvm.View(scratch_addr);
      const std::size_t top = heights.size() - 1;
      jvm.WriteRef(parent, 0,
                   scratch_view.ref(static_cast<std::uint32_t>(top)));
      jvm.WriteRef(parent, 1,
                   scratch_view.ref(static_cast<std::uint32_t>(top - 1)));
      jvm.WriteRef(scratch_addr, static_cast<std::uint32_t>(top), 0);
      const unsigned h = heights.back();
      heights.pop_back();
      heights.pop_back();
      jvm.WriteRef(scratch_addr, static_cast<std::uint32_t>(heights.size()),
                   parent);
      heights.push_back(h + 1);
    };

    unsigned built = 0;
    while (built < count) {
      const rt::vaddr_t leaf = new_node();
      ++built;
      jvm.WriteRef(jvm.roots().Get(scratch),
                   static_cast<std::uint32_t>(heights.size()), leaf);
      heights.push_back(0);
      while (built < count && heights.size() >= 2 &&
             heights[heights.size() - 1] == heights[heights.size() - 2]) {
        combine();
        ++built;
      }
    }
    while (heights.size() >= 2) combine();  // fold the leftover forest

    const rt::vaddr_t root = jvm.View(jvm.roots().Get(scratch)).ref(0);
    jvm.roots().Remove(scratch);
    return root;
  }

  void Walk(rt::Jvm& jvm, rt::vaddr_t node, int depth) {
    while (node != 0 && depth < 18) {
      rt::ObjectView view = jvm.View(node);
      jvm.mutator(0).cpu.account.Charge(sim::CostKind::kCompute, 30);
      view.set_data_word(0, view.data_word(0) ^ (std::uint64_t{1} << depth));
      node = view.ref(rng_.NextBelow(2) ? 1 : 0);
      ++depth;
    }
  }
};

}  // namespace

std::unique_ptr<Workload> MakeBisort() {
  return std::make_unique<BisortWorkload>();
}

}  // namespace svagc::workloads
