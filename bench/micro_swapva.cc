// Google-benchmark microbenchmarks of the simulated kernel itself: real
// host wall time of the SwapVA machinery (page-table walks, split-PTL
// locking, PTE exchange) vs real byte copying through the address space.
// These complement the modeled-cycle figure harnesses: they demonstrate
// that the zero-copy property is real in this implementation too — swapping
// PTEs of N pages is O(N) pointer work while memmove is O(N * 4096) byte
// work. Custom counters report the modeled cycles alongside.
// BM_MemsimOnAccess times the Table III cache/DTLB model per traced line,
// and BM_MemsimSuperstep the same model fed pagerank's superstep.
// BM_FlushPageAllCores and BM_DigestHeap time the far tier's per-eviction
// TLB invalidation and the fleet's end-of-run heap digest. BM_ZeroBytes
// times allocation zeroing over known-zero and over written frames.
// BM_FarTierFault times one far-tier fault at the residency limit, over
// zeroed or written pages, and BM_SwapVaTwoWorkers two threads swapping
// disjoint ranges of one radix page table.
#include <benchmark/benchmark.h>

#include "memsim/hierarchy.h"
#include "simkernel/swapva.h"
#include "verify/differential_oracle.h"
#include "workloads/runner.h"

namespace {

using namespace svagc;

struct Fixture {
  sim::Machine machine;
  sim::Kernel kernel{machine};
  sim::PhysicalMemory phys{4096ULL << sim::kPageShift};
  sim::AddressSpace as{machine, phys};
  static constexpr sim::vaddr_t kBase = 1ULL << 32;

  explicit Fixture(
      sim::TranslationBackend backend = sim::TranslationBackend::kRadix)
      : machine(4, sim::ProfileXeonGold6130(), backend) {
    as.MapRange(kBase, 2048ULL << sim::kPageShift);
  }
};

// Second arg selects the translation backend (0 = radix, 1 = hashed), so
// the host-time and modeled-cycle columns compare the directory walk
// against the O(1) bucket relink directly.
void BM_SwapVa(benchmark::State& state) {
  Fixture f(static_cast<sim::TranslationBackend>(state.range(1)));
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  sim::SwapVaOptions opts;
  sim::CpuContext ctx(f.machine, 0);
  const sim::vaddr_t a = Fixture::kBase;
  const sim::vaddr_t b = Fixture::kBase + (1024ULL << sim::kPageShift);
  for (auto _ : state) {
    f.kernel.SysSwapVa(f.as, ctx, a, b, pages, opts);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages << sim::kPageShift));
  state.counters["modeled_cycles_per_op"] =
      ctx.account.total() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SwapVa)
    ->ArgNames({"pages", "hashed"})
    ->ArgsProduct({{1, 10, 64, 256}, {0, 1}});

void BM_SwapVaNoPmdCache(benchmark::State& state) {
  Fixture f;
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  sim::SwapVaOptions opts;
  opts.pmd_caching = false;
  sim::CpuContext ctx(f.machine, 0);
  for (auto _ : state) {
    f.kernel.SysSwapVa(f.as, ctx, Fixture::kBase,
                       Fixture::kBase + (1024ULL << sim::kPageShift), pages,
                       opts);
  }
  state.counters["modeled_cycles_per_op"] =
      ctx.account.total() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SwapVaNoPmdCache)->Arg(64)->Arg(256);

void BM_Memmove(benchmark::State& state) {
  Fixture f;
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  sim::CpuContext ctx(f.machine, 0);
  for (auto _ : state) {
    f.as.CopyBytes(ctx, Fixture::kBase,
                   Fixture::kBase + (1024ULL << sim::kPageShift),
                   pages << sim::kPageShift);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages << sim::kPageShift));
  state.counters["modeled_cycles_per_op"] =
      ctx.account.total() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Memmove)->Arg(1)->Arg(10)->Arg(64)->Arg(256);

// Allocation zeroing of 256 KiB. dirty=0: a previous pass left every frame
// known zero, so only the modeled charge and the per-page lookup remain.
// dirty=1: one WriteWord per page (timed with the pass) dirties every frame
// first, so every page is memset.
void BM_ZeroBytes(benchmark::State& state) {
  Fixture f;
  const bool dirty = state.range(0) != 0;
  const std::uint64_t bytes = 64ULL << sim::kPageShift;
  sim::CpuContext ctx(f.machine, 0);
  f.as.ZeroBytes(ctx, Fixture::kBase, bytes);
  for (auto _ : state) {
    if (dirty) {
      for (std::uint64_t off = 0; off < bytes; off += sim::kPageSize) {
        f.as.WriteWord(Fixture::kBase + off, off + 1);
      }
    }
    f.as.ZeroBytes(ctx, Fixture::kBase, bytes);
    benchmark::DoNotOptimize(f.as.RawPtr(Fixture::kBase));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ZeroBytes)->ArgName("dirty")->Arg(0)->Arg(1);

// One far-tier fault per iteration at the residency limit: 2048 mapped
// pages, 1024 of them resident, faulted in address order, so each fault
// evicts the page faulted 1024 faults before it (SysHandleFault sets no
// reference bit). zero=1: every page was zeroed first, so evictions store
// known-zero frames and faults read zero pages. zero=0: one written word
// per page, so every eviction and fault moves a page of data.
void BM_FarTierFault(benchmark::State& state) {
  Fixture f;
  constexpr std::uint64_t kPages = 2048;
  sim::CpuContext setup(f.machine, 1);
  if (state.range(0) != 0) {
    f.as.ZeroBytes(setup, Fixture::kBase, kPages << sim::kPageShift);
  } else {
    for (std::uint64_t page = 0; page < kPages; ++page) {
      f.as.WriteWord(Fixture::kBase + (page << sim::kPageShift), page + 1);
    }
  }
  sim::FarTierConfig config;
  config.resident_limit_pages = kPages / 2;
  f.as.EnableFarTier(f.kernel, setup, config);
  sim::CpuContext ctx(f.machine, 0);
  const std::uint64_t vpn0 = Fixture::kBase >> sim::kPageShift;
  std::uint64_t page = 0;
  for (auto _ : state) {
    while (!f.as.translation().LookupPte(vpn0 + page).swapped()) {
      page = (page + 1) % kPages;
    }
    f.kernel.SysHandleFault(f.as, ctx, (vpn0 + page) << sim::kPageShift);
    page = (page + 1) % kPages;
  }
  state.counters["modeled_cycles_per_op"] =
      ctx.account.total() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FarTierFault)->ArgName("zero")->Arg(0)->Arg(1);

// Two threads, as two GC workers compacting different regions: each swaps
// its own pair of 256-page ranges of one radix address space per
// iteration, with local-only TLB flushes. Every page resolves two leaves,
// and the workers share only the page table and the machine.
void BM_SwapVaTwoWorkers(benchmark::State& state) {
  static Fixture shared;  // one address space for both threads and runs
  constexpr std::uint64_t kPages = 256;
  const auto worker = static_cast<unsigned>(state.thread_index());
  const sim::vaddr_t a =
      Fixture::kBase + ((2 * kPages * worker) << sim::kPageShift);
  const sim::vaddr_t b = a + (kPages << sim::kPageShift);
  sim::SwapVaOptions opts;
  opts.tlb_policy = sim::TlbPolicy::kLocalOnly;
  sim::CpuContext ctx(shared.machine, worker);
  for (auto _ : state) {
    shared.kernel.SysSwapVa(shared.as, ctx, a, b, kPages, opts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPages));
}
BENCHMARK(BM_SwapVaTwoWorkers)->Threads(2)->UseRealTime();

void BM_SwapVaOverlap(benchmark::State& state) {
  Fixture f;
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t delta = pages / 2;
  sim::SwapVaOptions opts;
  sim::CpuContext ctx(f.machine, 0);
  for (auto _ : state) {
    f.kernel.SysSwapVa(f.as, ctx, Fixture::kBase,
                       Fixture::kBase + (delta << sim::kPageShift), pages,
                       opts);
  }
  state.counters["modeled_cycles_per_op"] =
      ctx.account.total() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SwapVaOverlap)->Arg(16)->Arg(256);

void BM_AggregatedVec(benchmark::State& state) {
  Fixture f(static_cast<sim::TranslationBackend>(state.range(1)));
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<sim::SwapRequest> requests;
  for (std::size_t i = 0; i < batch; ++i) {
    requests.push_back({Fixture::kBase + (i * 8) * sim::kPageSize,
                        Fixture::kBase + ((1024 + i * 8) << sim::kPageShift),
                        4});
  }
  sim::SwapVaOptions opts;
  sim::CpuContext ctx(f.machine, 0);
  for (auto _ : state) {
    f.kernel.SysSwapVaVec(f.as, ctx, requests, opts);
  }
  state.counters["modeled_cycles_per_op"] =
      ctx.account.total() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_AggregatedVec)
    ->ArgNames({"batch", "hashed"})
    ->ArgsProduct({{8, 64}, {0, 1}});

// One traced access of `bytes` per iteration into Table III's scaled
// hierarchy, walking a 768 KiB region with wrap-around after one warm-up
// pass. The region fits the 1 MiB LLC but not L1 or L2, so long accesses
// stream through L1/L2 and hit the LLC, while 8-byte ones mostly hit L1.
void BM_MemsimOnAccess(benchmark::State& state) {
  const auto bytes = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint64_t kBase = 1ULL << 32;
  constexpr std::uint64_t kRegion = 768ULL << 10;
  memsim::MemoryHierarchy hierarchy(
      memsim::HierarchyConfig::ScaledForSmallHeaps());
  std::uint64_t offset = 0;
  const auto access = [&] {
    hierarchy.OnAccess(kBase + offset, bytes, /*is_write=*/false);
    offset = (offset + bytes) % kRegion;
  };
  for (std::uint64_t done = 0; done < kRegion; done += bytes) access();
  const std::uint64_t warm_lines = hierarchy.l1().accesses();
  for (auto _ : state) access();
  const std::uint64_t lines = hierarchy.l1().accesses() - warm_lines;
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MemsimOnAccess)
    ->ArgName("bytes")
    ->Arg(8)
    ->Arg(64)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(256 << 10);

// Pagerank's superstep as Table III's scaled hierarchy sees it, one chunk
// per iteration: the next 64 KiB adjacency chunk of a ring of 40, then the
// same two 256 KiB rank vectors. Each array sits behind a 16-byte header,
// as heap objects do. Every call fills all of L2's sets, while the LLC,
// which holds the vectors, gets a few lines of a call in each set.
void BM_MemsimSuperstep(benchmark::State& state) {
  constexpr std::uint64_t kBase = 1ULL << 32;
  constexpr std::uint64_t kHeader = 16;
  constexpr std::uint32_t kChunkBytes = 64 << 10;
  constexpr std::uint32_t kRankBytes = 256 << 10;
  constexpr unsigned kChunks = 40;
  constexpr std::uint64_t kChunkStride = kHeader + kChunkBytes;
  const std::uint64_t ranks = kBase + kChunks * kChunkStride + kHeader;
  const std::uint64_t next_ranks = ranks + kRankBytes + kHeader;
  memsim::MemoryHierarchy hierarchy(
      memsim::HierarchyConfig::ScaledForSmallHeaps());
  unsigned chunk = 0;
  const auto step = [&] {
    hierarchy.OnAccess(kBase + chunk * kChunkStride + kHeader, kChunkBytes,
                       /*is_write=*/false);
    hierarchy.OnAccess(ranks, kRankBytes, /*is_write=*/false);
    hierarchy.OnAccess(next_ranks, kRankBytes, /*is_write=*/true);
    chunk = (chunk + 1) % kChunks;
  };
  for (unsigned warm = 0; warm < kChunks; ++warm) step();
  const std::uint64_t warm_lines = hierarchy.l1().accesses();
  for (auto _ : state) step();
  const std::uint64_t lines = hierarchy.l1().accesses() - warm_lines;
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MemsimSuperstep);

// One far-tier eviction's invalidation on a 32-core machine whose TLBs hold
// 1024 pages of the asid on `cores` cores. The flushed vpns are never
// cached, so every iteration sees the same TLB contents.
void BM_FlushPageAllCores(benchmark::State& state) {
  constexpr unsigned kCores = 32;
  constexpr std::uint64_t kAsid = 1;
  const auto cores = static_cast<unsigned>(state.range(0));
  sim::Machine machine(kCores, sim::ProfileXeonGold6130());
  for (unsigned core = 0; core < cores; ++core) {
    for (std::uint64_t vpn = 0; vpn < 1024; ++vpn) {
      machine.tlb(core).Insert(kAsid, vpn, vpn);
    }
  }
  sim::CpuContext ctx(machine, 0);
  std::uint64_t vpn = 1ULL << 20;
  for (auto _ : state) machine.FlushPageAllCores(ctx, kAsid, vpn++);
  state.counters["modeled_cycles_per_op"] =
      ctx.account.total() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FlushPageAllCores)->ArgName("cached_on")->Arg(0)->Arg(1)->Arg(32);

// verify::DigestHeap of one lrucache heap after 12 iterations under SVAGC.
void BM_DigestHeap(benchmark::State& state) {
  workloads::RunConfig config;
  config.workload = "lrucache";
  config.collector = workloads::CollectorKind::kSvagc;
  sim::Machine machine(config.machine_cores, sim::ProfileXeonGold6130());
  sim::Kernel kernel(machine);
  sim::PhysicalMemory phys(256ULL << 20);
  workloads::TenantBundle bundle = workloads::MakeTenant(
      config, machine, phys, kernel, /*tenant=*/0, /*mutator_core=*/0,
      /*gc_first_core=*/0, 1ULL << 32);
  bundle.workload->Setup(*bundle.jvm);
  for (int i = 0; i < 12; ++i) bundle.workload->Iterate(*bundle.jvm);
  const rt::Heap& heap = bundle.jvm->heap();
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::DigestHeap(*bundle.jvm).objects.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(heap.top() - heap.base()));
}
BENCHMARK(BM_DigestHeap)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
