// Quickstart: the five-minute tour of the SVAGC library.
//
// Builds a simulated machine, boots a managed runtime ("a JVM") with the
// SVAGC collector, allocates a mix of small and large objects, forces a
// collection, and prints what SwapVA did — all through the public API.
//
//   ./quickstart
#include <cstdio>

#include "core/svagc_collector.h"
#include "runtime/heap_verifier.h"
#include "runtime/jvm.h"
#include "simkernel/swapva.h"

using namespace svagc;

int main() {
  // 1. A simulated 8-core machine with the paper's main testbed cost
  //    profile, its kernel (which provides the SwapVA syscall), and 64 MiB
  //    of physical memory.
  sim::Machine machine(8, sim::ProfileXeonGold6130());
  sim::Kernel kernel(machine);
  sim::PhysicalMemory phys(64ULL << 20);

  // 2. A JVM with a 16 MiB heap. SVAGC requires page-aligned large objects
  //    (the default heap policy) and a swap threshold of 10 pages.
  rt::JvmConfig config;
  config.heap.capacity = 16ULL << 20;
  config.heap.swap_threshold_pages = 10;
  config.gc_threads = 4;
  rt::Jvm jvm(machine, phys, kernel, config);
  auto collector = std::make_unique<core::SvagcCollector>(
      machine, config.gc_threads, /*first_core=*/0);
  const telemetry::MetricsRegistry& metrics = collector->metrics();
  jvm.set_collector(std::move(collector));

  // 3. Allocate: a root table, some garbage, a large array (1 MiB, moved by
  //    SwapVA) and a small one (moved by memmove).
  const rt::RootSet::Handle root = jvm.roots().Add(jvm.New(
      /*type_id=*/1, /*num_refs=*/4, /*data_bytes=*/0));
  for (int i = 0; i < 40; ++i) jvm.New(2, 0, 16 * 1024);  // dies young

  const rt::vaddr_t big = jvm.New(3, 0, 1 << 20);
  jvm.View(jvm.roots().Get(root)).set_ref(0, big);
  jvm.View(big).set_data_word(0, 0xC0FFEE);

  const rt::vaddr_t small = jvm.New(4, 0, 512);
  jvm.View(jvm.roots().Get(root)).set_ref(1, small);

  std::printf("heap before GC: %.2f MiB used\n",
              jvm.heap().used() / 1048576.0);

  // 4. Collect. (Normally triggered automatically on allocation failure.)
  jvm.RetireAllTlabs();
  jvm.collector().Collect(jvm);

  // 5. Inspect. The root slots were forwarded; data survived; the large
  //    object moved by swapping page-table entries, not bytes. Pauses come
  //    from the collector's log, event totals from its metrics registry.
  const rt::vaddr_t big_now = jvm.View(jvm.roots().Get(root)).ref(0);
  std::printf("heap after GC:  %.2f MiB used\n", jvm.heap().used() / 1048576.0);
  std::printf("large object:   0x%llx -> 0x%llx, payload word = 0x%llx\n",
              (unsigned long long)big, (unsigned long long)big_now,
              (unsigned long long)jvm.View(big_now).data_word(0));

  const rt::GcLog& log = jvm.collector().log();
  std::printf("GC pauses:      %llu cycle(s), %.0fk modeled cycles total\n",
              (unsigned long long)log.collections, log.pauses.total() / 1e3);
  std::printf("moved by swap:  %.2f MiB in %llu syscall(s)\n",
              metrics.CounterValue("gc.bytes_swapped") / 1048576.0,
              (unsigned long long)metrics.CounterValue("gc.swap_calls"));
  std::printf("moved by copy:  %.2f KiB\n",
              metrics.CounterValue("gc.bytes_copied") / 1024.0);

  const rt::VerifyResult verify = rt::VerifyHeap(jvm);
  std::printf("heap verified:  %s (%llu live objects)\n",
              verify.ok ? "OK" : verify.error.c_str(),
              (unsigned long long)verify.objects);
  return verify.ok ? 0 : 1;
}
