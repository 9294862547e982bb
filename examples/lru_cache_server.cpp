// lru_cache_server: the paper's motivating application class — a memory-
// bound cache service whose tail latency is dominated by full-GC pauses.
//
// Builds an LRU cache directly on the public API (values of uniformly
// random size, the §V-B configuration), serves a request mix under a chosen
// collector, and reports throughput and pause percentiles so collectors can
// be compared head-to-head:
//
//   ./lru_cache_server            # SVAGC (default)
//   ./lru_cache_server parallelgc
//   ./lru_cache_server shenandoah
//   ./lru_cache_server svagc-memmove
#include <cstdio>
#include <cstring>
#include <string>

#include "core/svagc_collector.h"
#include "gc/parallel_gc.h"
#include "gc/shenandoah_gc.h"
#include "runtime/jvm.h"
#include "support/rng.h"

using namespace svagc;

namespace {

constexpr unsigned kEntries = 256;
constexpr std::uint64_t kMaxValueBytes = 256 * 1024;
constexpr unsigned kRequests = 4000;

std::unique_ptr<gc::CollectorBase> MakeCollector(const std::string& name,
                                                 sim::Machine& machine,
                                                 bool* align_large) {
  *align_large = true;
  if (name == "svagc") {
    return std::make_unique<core::SvagcCollector>(machine, 8, 0);
  }
  if (name == "svagc-memmove") {
    core::SvagcConfig config;
    config.move.use_swapva = false;
    return std::make_unique<core::SvagcCollector>(machine, 8, 0, config);
  }
  *align_large = false;
  if (name == "parallelgc") {
    return std::make_unique<gc::ParallelGcLike>(machine, 8, 0);
  }
  if (name == "shenandoah") {
    return std::make_unique<gc::ShenandoahLike>(machine, 8, 0);
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string collector_name = argc > 1 ? argv[1] : "svagc";

  sim::Machine machine(32, sim::ProfileXeonGold6130());
  sim::Kernel kernel(machine);
  sim::PhysicalMemory phys(128ULL << 20);

  rt::JvmConfig config;
  config.heap.capacity = 44ULL << 20;  // ~1.2x the cache's live set
  bool align_large = true;
  auto collector = MakeCollector(collector_name, machine, &align_large);
  if (collector == nullptr) {
    std::fprintf(stderr,
                 "unknown collector '%s' (svagc | svagc-memmove | parallelgc "
                 "| shenandoah)\n",
                 collector_name.c_str());
    return 2;
  }
  config.heap.page_align_large = align_large;
  rt::Jvm jvm(machine, phys, kernel, config);
  const telemetry::MetricsRegistry& metrics = collector->metrics();
  jvm.set_collector(std::move(collector));

  // The cache: one root table of value references + host-side recency.
  const auto table = jvm.roots().Add(jvm.New(1, kEntries, 0));
  std::vector<std::uint64_t> stamps(kEntries, 0);
  std::uint64_t clock = 0;
  Rng rng(42);

  auto put = [&](unsigned slot) {
    const std::uint64_t bytes = rng.NextInRange(1, kMaxValueBytes);
    const rt::vaddr_t value = jvm.New(2, 0, bytes);
    jvm.View(jvm.roots().Get(table)).set_ref(slot, value);
    jvm.address_space().StreamTouch(jvm.mutator().cpu,
                                    jvm.View(value).data_base(),
                                    jvm.View(value).data_words() * 8, 0.2,
                                    /*is_write=*/true);
    stamps[slot] = ++clock;
  };

  // Warm up to capacity.
  for (unsigned i = 0; i < kEntries; ++i) put(i);

  // Serve requests: 60% GET / 40% PUT-with-LRU-eviction.
  unsigned hits = 0;
  for (unsigned request = 0; request < kRequests; ++request) {
    ++clock;
    if (rng.NextBelow(100) < 60) {
      const unsigned slot = static_cast<unsigned>(rng.NextBelow(kEntries));
      const rt::vaddr_t value = jvm.View(jvm.roots().Get(table)).ref(slot);
      if (value != 0) {
        ++hits;
        rt::ObjectView view = jvm.View(value);
        jvm.address_space().StreamTouch(jvm.mutator().cpu, view.data_base(),
                                        view.data_words() * 8, 0.2, false);
        stamps[slot] = clock;
      }
    } else {
      unsigned victim = 0;
      for (unsigned i = 1; i < kEntries; ++i) {
        if (stamps[i] < stamps[victim]) victim = i;
      }
      put(victim);
    }
  }

  // Report: modeled service time, GC share, and the pause distribution that
  // decides this service's tail latency.
  rt::GcLog& log = jvm.collector().log();
  const double ghz = machine.cost().ghz;
  const double mutator_ms = jvm.MutatorCycles() / (ghz * 1e6);
  const double gc_ms = log.pauses.total() / (ghz * 1e6);
  std::printf("collector        : %s\n", jvm.collector().name());
  std::printf("requests         : %u (%u hits)\n", kRequests, hits);
  std::printf("service time     : %.3f ms mutator + %.3f ms GC (%.1f%% GC)\n",
              mutator_ms, gc_ms, 100.0 * gc_ms / (mutator_ms + gc_ms));
  std::printf("full collections : %llu\n",
              (unsigned long long)log.collections);
  std::printf("pause p50/p95/max: %.3f / %.3f / %.3f ms\n",
              log.pauses.Percentile(50) / (ghz * 1e6),
              log.pauses.Percentile(95) / (ghz * 1e6),
              log.pauses.max() / (ghz * 1e6));
  std::printf("swap traffic     : %.1f MiB swapped, %.1f MiB copied\n",
              metrics.CounterValue("gc.bytes_swapped") / 1048576.0,
              metrics.CounterValue("gc.bytes_copied") / 1048576.0);
  return 0;
}
