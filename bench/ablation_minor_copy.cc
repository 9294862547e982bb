// Ablation: SwapVA outside Full GC — the Table I applicability claims,
// measured through the production collectors. The same 64 objects are
// evacuated by
//   (a) the generational front end's minor GC: one tenure batch, where
//       aggregation applies (Table I row 2), and
//   (b) concurrent SVAGC's evacuation windows, which relocate each object
//       with its own call (Table I row 3),
// each with SwapVA off (memmove), on, and on without PMD caching. Confirms
// empirically which optimization pays off in which phase class, as Table I
// asserts.
#include <memory>

#include "bench/bench_util.h"
#include "core/concurrent_svagc_collector.h"
#include "core/generational_collector.h"
#include "core/svagc_collector.h"

using namespace svagc;

namespace {

struct Evacuation {
  double cycles = 0;        // modeled cycles of the evacuation phase
  std::uint64_t calls = 0;  // swap syscalls it issued
};

struct Setup {
  sim::Machine machine{8, sim::ProfileXeonGold6130()};
  sim::Kernel kernel{machine};
  sim::PhysicalMemory phys{320ULL << 20};
  std::unique_ptr<rt::Jvm> jvm;

  Setup() {
    rt::JvmConfig config;
    config.heap.capacity = 160ULL << 20;  // never collects during setup
    config.heap.page_align_large = true;
    jvm = std::make_unique<rt::Jvm>(machine, phys, kernel, config);
  }
};

// Row 2: allocate the objects in the real collector's nursery, then run one
// minor collection whose tenuring (tenure_age = 1 promotes everything)
// evacuates them as one batch on a single worker. Returns the minor cycle's
// evacuate phase.
Evacuation MinorTenureBatch(unsigned objects, std::uint64_t object_bytes,
                            const core::MoveObjectConfig& move) {
  Setup setup;
  core::GenerationalConfig gen;
  gen.young_bytes = 72ULL << 20;  // fits the 1 MiB row's objects while
                                  // leaving old-space room to tenure them
  gen.bypass_bytes = 4ULL << 20;  // everything allocates young
  gen.tenure_age = 1;             // first minor promotes every survivor
  gen.gang_workers = 1;           // one batch on one context
  gen.move = move;
  auto inner = std::make_unique<core::SvagcCollector>(
      setup.machine, /*gc_threads=*/1, /*first_core=*/0, core::SvagcConfig{});
  auto collector = std::make_unique<core::GenerationalCollector>(
      setup.machine, /*first_core=*/0, std::move(inner), gen);
  core::GenerationalCollector* front = collector.get();
  rt::Jvm& jvm = *setup.jvm;
  jvm.set_collector(std::move(collector));
  jvm.set_gc_barrier(front);
  jvm.set_alloc_front_end(front);

  for (unsigned i = 0; i < objects; ++i) {
    jvm.roots().Add(jvm.New(1, 0, object_bytes));
  }
  SVAGC_CHECK(front->MinorCollect(jvm));
  SVAGC_CHECK(front->last_minor().tenured == objects);
  return {front->log().Sum().compact,
          front->metrics().CounterValue("gc.swap_calls")};
}

// Row 3: the same objects under concurrent SVAGC, each behind an unrooted
// spacer of its own size, so the cycle slides every object onto the dead
// spacer before it and no move overlaps its own source. Returns the sum of
// the cycle's evacuation windows.
Evacuation ConcurrentWindows(unsigned objects, std::uint64_t object_bytes,
                             const core::MoveObjectConfig& move) {
  Setup setup;
  core::ConcurrentSvagcConfig config;
  config.move = move;
  auto owned = std::make_unique<core::ConcurrentSvagcCollector>(
      setup.machine, /*first_core=*/0, config);
  core::ConcurrentSvagcCollector* collector = owned.get();
  rt::Jvm& jvm = *setup.jvm;
  jvm.set_collector(std::move(owned));
  jvm.set_gc_barrier(collector);

  for (unsigned i = 0; i < objects; ++i) {
    jvm.New(1, 0, object_bytes);  // spacer
    jvm.roots().Add(jvm.New(1, 0, object_bytes));
  }
  collector->Collect(jvm);
  SVAGC_CHECK(collector->metrics().CounterValue("gc.objects_moved") == objects);
  return {collector->log().Sum().compact,
          collector->metrics().CounterValue("gc.swap_calls")};
}

}  // namespace

int main() {
  std::printf("== Ablation: SwapVA in minor-copy / concurrent-relocation "
              "phases (Table I) ==\n");
  bench::PrintProfileHeader(sim::ProfileXeonGold6130());

  constexpr unsigned kObjects = 64;
  TablePrinter table({"object size", "phase class", "memmove(kcyc)",
                      "SwapVA(kcyc)", "calls", "SwapVA no-PMD$(kcyc)",
                      "speedup"});
  for (const std::uint64_t kb :
       bench::SmokeSweep<std::uint64_t>({64, 256, 1024})) {
    for (const bool minor : {true, false}) {
      const auto evacuate = minor ? MinorTenureBatch : ConcurrentWindows;
      const char* phase = minor ? "Minor (copying)" : "Concurrent (reloc.)";
      core::MoveObjectConfig move;
      move.use_swapva = false;
      const Evacuation copy = evacuate(kObjects, kb * 1024, move);
      move.use_swapva = true;
      const Evacuation swap = evacuate(kObjects, kb * 1024, move);
      move.pmd_caching = false;
      const Evacuation swap_nopmd = evacuate(kObjects, kb * 1024, move);
      table.AddRow({Format("%llu KiB", (unsigned long long)kb), phase,
                    Format("%.1f", copy.cycles / 1e3),
                    Format("%.1f", swap.cycles / 1e3),
                    Format("%llu", (unsigned long long)swap.calls),
                    Format("%.1f", swap_nopmd.cycles / 1e3),
                    Format("%.2fx", copy.cycles / swap.cycles)});
    }
  }
  bench::Emit("ablation_minor_copy", table);
  std::printf(
      "\nTable I, through the production collectors: SwapVA and PMD caching "
      "help both phase classes; aggregation (fewer calls) only exists in the "
      "minor batch — concurrent relocation issues one syscall per object.\n");
  return 0;
}
