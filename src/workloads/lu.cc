// LU.large (blocked LU factorization, SPECjvm2008).
//
// Profile: matrix panels; each factorization step streams a pivot panel and
// updates the trailing ones, allocating fresh multiplier panels as it goes.
#include "workloads/churn_base.h"
#include "workloads/factories.h"

namespace svagc::workloads {

namespace {

constexpr std::uint64_t kPanelBytes = 96 * 1024;
constexpr unsigned kPanels = 56;

class LuWorkload final : public TableWorkload {
 public:
  LuWorkload()
      : TableWorkload(WorkloadInfo{
            .name = "lu.large",
            .display_name = "LU.large",
            .suite = "SPECjvm2008",
            .logical_threads = 14,
            .min_heap_bytes = (kPanels + 6) * kPanelBytes * 5 / 4,
            .avg_object_bytes = kPanelBytes,
        }) {}

  void Setup(rt::Jvm& jvm) override {
    table_ = jvm.roots().Add(AllocRefTable(jvm, kPanels, 0));
    for (unsigned i = 0; i < kPanels; ++i) {
      const rt::vaddr_t panel =
          AllocDataArray(jvm, kPanelBytes, NextThread(jvm));
      jvm.WriteRef(jvm.roots().Get(table_), i, panel);
    }
  }

  void Iterate(rt::Jvm& jvm) override {
    const unsigned pivot = static_cast<unsigned>(rng_.NextBelow(kPanels));
    {
      rt::ObjectView table = jvm.View(jvm.roots().Get(table_));
      // Factor the pivot panel (triangular solve is compute-dense).
      StreamOverObject(jvm, NextThread(jvm), table.ref(pivot), 0.6, true);
      // Rank-k update of a slice of trailing panels.
      for (unsigned k = 1; k <= 6; ++k) {
        const unsigned i = (pivot + k) % kPanels;
        const unsigned t = NextThread(jvm);
        StreamOverObject(jvm, t, table.ref(pivot), 0.1, false);
        StreamOverObject(jvm, t, table.ref(i), 0.4, true);
      }
    }
    // Fresh multiplier panels replace a couple of finished ones.
    for (unsigned r = 0; r < 3; ++r) {
      const unsigned t = NextThread(jvm);
      const unsigned i = static_cast<unsigned>(rng_.NextBelow(kPanels));
      const rt::vaddr_t panel = AllocDataArray(jvm, kPanelBytes, t);
      jvm.WriteRef(jvm.roots().Get(table_), i, panel);
      StreamOverObject(jvm, t, panel, 0.4, true);
    }
  }
};

}  // namespace

std::unique_ptr<Workload> MakeLuLarge() {
  return std::make_unique<LuWorkload>();
}

}  // namespace svagc::workloads
