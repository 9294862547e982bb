// Parallelsort (OpenJDK Arrays.parallelSort): merge passes over chunked
// arrays. Paper input 2M entries, scaled 1:8 (256K 8-byte entries).
//
// Profile: large array chunks with heavy transient allocation — each merge
// produces a fresh output array and retires its inputs, the classic
// temporary-buffer churn of parallel merge sort.
#include "workloads/churn_base.h"
#include "workloads/factories.h"

namespace svagc::workloads {

namespace {

constexpr unsigned kChunks = 16;
constexpr std::uint64_t kEntries = 256 * 1024;
constexpr std::uint64_t kChunkBytes = kEntries / kChunks * 8;  // 128 KiB

class ParallelSortWorkload final : public TableWorkload {
 public:
  ParallelSortWorkload()
      : TableWorkload(WorkloadInfo{
            .name = "parallelsort",
            .display_name = "ParSort",
            .suite = "OpenJDK",
            .logical_threads = 56,
            .min_heap_bytes = (kChunks + 4) * kChunkBytes * 5 / 4,
            .avg_object_bytes = kChunkBytes,
        }) {}

  void Setup(rt::Jvm& jvm) override {
    table_ = jvm.roots().Add(AllocRefTable(jvm, kChunks, 0));
    for (unsigned c = 0; c < kChunks; ++c) {
      const rt::vaddr_t chunk =
          AllocDataArray(jvm, kChunkBytes, NextThread(jvm));
      jvm.WriteRef(jvm.roots().Get(table_), c, chunk);
      FillRandom(jvm, chunk);
    }
  }

  void Iterate(rt::Jvm& jvm) override {
    // Local sort of two random chunks, then a merge into a fresh buffer
    // that replaces one input; the other is re-randomized (a new "run").
    const unsigned a = static_cast<unsigned>(rng_.NextBelow(kChunks));
    const unsigned b = (a + 1 + static_cast<unsigned>(
                                    rng_.NextBelow(kChunks - 1))) %
                       kChunks;
    const unsigned t = NextThread(jvm);
    {
      rt::ObjectView table = jvm.View(jvm.roots().Get(table_));
      // In-place local sorts: n log n passes ~ a few streaming sweeps.
      StreamOverObject(jvm, t, table.ref(a), 0.5, true);
      StreamOverObject(jvm, t, table.ref(b), 0.5, true);
    }
    const rt::vaddr_t merged = AllocDataArray(jvm, kChunkBytes, t);
    {
      rt::ObjectView table = jvm.View(jvm.roots().Get(table_));
      StreamOverObject(jvm, t, table.ref(a), 0.2, false);
      StreamOverObject(jvm, t, table.ref(b), 0.2, false);
    }
    StreamOverObject(jvm, t, merged, 0.25, true);
    jvm.WriteRef(jvm.roots().Get(table_), a, merged);
    const rt::vaddr_t fresh_run = AllocDataArray(jvm, kChunkBytes, t);
    jvm.WriteRef(jvm.roots().Get(table_), b, fresh_run);
    FillRandom(jvm, fresh_run);
  }

 private:
  void FillRandom(rt::Jvm& jvm, rt::vaddr_t chunk) {
    rt::ObjectView view = jvm.View(chunk);
    for (std::uint64_t i = 0; i < view.data_words(); i += 128) {
      view.set_data_word(i, rng_.NextU64());
    }
    StreamOverObject(jvm, 0, chunk, 0.1, true);
  }
};

}  // namespace

std::unique_ptr<Workload> MakeParallelSort() {
  return std::make_unique<ParallelSortWorkload>();
}

}  // namespace svagc::workloads
