// Sparse.large (SpMV, SPECjvm2008) and its 1/2 and 1/4 input-size variants.
//
// Profile: many ~50 KiB objects (CSR value/index blocks) plus two dense
// vectors. More, smaller objects than FFT — the paper notes Sparse gains
// less from SwapVA than FFT for exactly this reason.
#include "workloads/churn_base.h"
#include "workloads/factories.h"

namespace svagc::workloads {

namespace {

constexpr std::uint64_t kValueBlockBytes = 48 * 1024;  // ~50 KiB values
constexpr std::uint64_t kIndexBlockBytes = 48 * 1024;  // 64-bit col indices

class SparseWorkload final : public TableWorkload {
 public:
  SparseWorkload(const char* name, const char* display, unsigned blocks,
                 unsigned threads)
      : TableWorkload(WorkloadInfo{
            .name = name,
            .display_name = display,
            .suite = "SPECjvm2008",
            .logical_threads = threads,
            .min_heap_bytes = MinHeap(blocks),
            .avg_object_bytes = (kValueBlockBytes + kIndexBlockBytes) / 2,
        }),
        num_blocks_(blocks) {}

  static std::uint64_t MinHeap(unsigned blocks) {
    const std::uint64_t live =
        blocks * (kValueBlockBytes + kIndexBlockBytes) + 2 * kVectorBytes;
    return live * 5 / 4;
  }

  void Setup(rt::Jvm& jvm) override {
    // Layout: [0..n) value blocks, [n..2n) index blocks, then x and y.
    table_ = jvm.roots().Add(AllocRefTable(jvm, 2 * num_blocks_ + 2, 0));
    for (unsigned i = 0; i < num_blocks_; ++i) {
      const rt::vaddr_t values =
          AllocDataArray(jvm, kValueBlockBytes, NextThread(jvm));
      jvm.WriteRef(jvm.roots().Get(table_), i, values);
      const rt::vaddr_t indices =
          AllocDataArray(jvm, kIndexBlockBytes, NextThread(jvm));
      jvm.WriteRef(jvm.roots().Get(table_), num_blocks_ + i, indices);
    }
    const rt::vaddr_t x = AllocDataArray(jvm, kVectorBytes, 0);
    jvm.WriteRef(jvm.roots().Get(table_), 2 * num_blocks_, x);
    const rt::vaddr_t y = AllocDataArray(jvm, kVectorBytes, 0);
    jvm.WriteRef(jvm.roots().Get(table_), 2 * num_blocks_ + 1, y);
  }

  void Iterate(rt::Jvm& jvm) override {
    // y = A*x over a band of row blocks.
    const unsigned band = std::max(1u, num_blocks_ / 4);
    {
      rt::ObjectView table = jvm.View(jvm.roots().Get(table_));
      const unsigned start =
          static_cast<unsigned>(rng_.NextBelow(num_blocks_));
      for (unsigned k = 0; k < band; ++k) {
        const unsigned i = (start + k) % num_blocks_;
        const unsigned t = NextThread(jvm);
        // Block i's values, then its column indices, then the x vector.
        StreamOverObject(jvm, t, table.ref(i), 0.25, false);
        StreamOverObject(jvm, t, table.ref(num_blocks_ + i), 0.2, false);
        StreamOverObject(jvm, t, table.ref(2 * num_blocks_), 0.15, false);
      }
      StreamOverObject(jvm, 0, table.ref(2 * num_blocks_ + 1), 0.2, true);  // y
    }
    // Matrix refresh: some blocks are rebuilt (new structure each epoch).
    const unsigned replace = std::max(1u, num_blocks_ / 10);
    for (unsigned r = 0; r < replace; ++r) {
      const unsigned t = NextThread(jvm);
      const unsigned i =
          static_cast<unsigned>(rng_.NextBelow(num_blocks_));
      // `values` must be consumed before the `indices` allocation: that
      // allocation can trigger a GC that relocates it (the slot in the
      // rooted table is adjusted, the local vaddr is not).
      const rt::vaddr_t values = AllocDataArray(jvm, kValueBlockBytes, t);
      jvm.WriteRef(jvm.roots().Get(table_), i, values);
      StreamOverObject(jvm, t, values, 0.25, true);
      const rt::vaddr_t indices = AllocDataArray(jvm, kIndexBlockBytes, t);
      jvm.WriteRef(jvm.roots().Get(table_), num_blocks_ + i, indices);
    }
  }

 private:
  static constexpr std::uint64_t kVectorBytes = 512 * 1024;
  unsigned num_blocks_;
};

}  // namespace

std::unique_ptr<Workload> MakeSparseLarge() {
  return std::make_unique<SparseWorkload>("sparse.large", "Sparse.large", 160,
                                          36);
}
std::unique_ptr<Workload> MakeSparseLarge2() {
  return std::make_unique<SparseWorkload>("sparse.large/2", "Sparse.large/2",
                                          80, 36);
}
std::unique_ptr<Workload> MakeSparseLarge4() {
  return std::make_unique<SparseWorkload>("sparse.large/4", "Sparse.large/4",
                                          40, 36);
}

}  // namespace svagc::workloads
