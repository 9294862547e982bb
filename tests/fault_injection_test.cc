// One test per kernel fault-injection point (simkernel/fault.h), each
// proving the hazard is either surfaced as an error code the caller handles
// or caught by the matching invariant — plus control runs with injection
// disabled, and deathtest-coexistence checks showing armed faults cannot
// leak between tests in one binary.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/concurrent_svagc_collector.h"
#include "core/svagc_collector.h"
#include "fleet/fleet_runner.h"
#include "tests/test_util.h"
#include "verify/differential_oracle.h"
#include "verify/fault_injector.h"
#include "verify/invariant_registry.h"

namespace svagc {
namespace {

using svagc::testing::ChecksumReachable;
using svagc::testing::MoveToSpace;
using svagc::testing::SimBundle;

constexpr std::uint64_t kLargePages = 16;
// Object size chosen so header + payload tile the page extent exactly.
constexpr std::uint64_t kLargeData = kLargePages * sim::kPageSize - 24;

rt::vaddr_t NewLarge(rt::Jvm& jvm, std::uint64_t tag) {
  const rt::vaddr_t addr = jvm.New(1, 0, kLargeData);
  rt::ObjectView view = jvm.View(addr);
  for (std::uint64_t w = 0; w < view.data_words(); w += 101) {
    view.set_data_word(w, tag * 1000003 + w);
  }
  return addr;
}

// Shared fixture: every test gets a fresh injector and TearDown resets it,
// so a test that forgets its ScopedInjection still cannot poison the next.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { injector_.Reset(); }

  verify::FaultInjector injector_{/*seed=*/42};
};

// --- kDropTlbShootdown: latent hazard, caught by tlb-coherence ---------------

TEST_F(FaultInjectionTest, DroppedShootdownTripsTlbCoherence) {
  SimBundle sim(4);
  rt::JvmConfig config;
  config.heap.capacity = 16ULL << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  const rt::vaddr_t a = NewLarge(jvm, 1);
  const rt::vaddr_t b = NewLarge(jvm, 2);

  // Core 1 caches translations for both extents.
  sim::CpuContext remote(sim.machine, 1);
  for (std::uint64_t p = 0; p < kLargePages; ++p) {
    jvm.address_space().HwPtr(remote, a + p * sim::kPageSize);
    jvm.address_space().HwPtr(remote, b + p * sim::kPageSize);
  }

  sim::CpuContext ctx(sim.machine, 0);
  sim::SwapVaOptions opts;
  opts.tlb_policy = sim::TlbPolicy::kGlobalPerCall;

  {
    // Control: shootdown delivered, every invariant holds.
    verify::ScopedInjection hook(sim.kernel, injector_);
    sim.kernel.SysSwapVa(jvm.address_space(), ctx, a, b, kLargePages, opts);
    EXPECT_EQ(injector_.total_fires(), 0u);
    const auto report = verify::InvariantRegistry::Default().RunAll(jvm);
    EXPECT_TRUE(report.ok) << report.Describe();
  }

  // Re-seed core 1, then drop the shootdown of the swap-back.
  for (std::uint64_t p = 0; p < kLargePages; ++p) {
    jvm.address_space().HwPtr(remote, a + p * sim::kPageSize);
    jvm.address_space().HwPtr(remote, b + p * sim::kPageSize);
  }
  {
    verify::ScopedInjection hook(sim.kernel, injector_);
    injector_.Arm(sim::FaultPoint::kDropTlbShootdown, {.first = 0});
    sim.kernel.SysSwapVa(jvm.address_space(), ctx, a, b, kLargePages, opts);
    EXPECT_EQ(injector_.fires(sim::FaultPoint::kDropTlbShootdown), 1u);
    const rt::VerifyResult coherence = verify::CheckTlbCoherence(jvm);
    EXPECT_FALSE(coherence.ok);
    EXPECT_NE(coherence.error.find("core 1"), std::string::npos)
        << coherence.error;
    // The heap itself is fine — only the remote TLBs are stale.
    EXPECT_TRUE(rt::VerifyHeap(jvm).ok);
  }
}

// --- kSpuriousLocalFlush: latent hazard, caught by tlb-coherence -------------

TEST_F(FaultInjectionTest, SpuriousLocalFlushTripsTlbCoherence) {
  SimBundle sim(4);
  rt::JvmConfig config;
  config.heap.capacity = 16ULL << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  const rt::vaddr_t a = NewLarge(jvm, 3);
  const rt::vaddr_t b = NewLarge(jvm, 4);

  sim::CpuContext ctx(sim.machine, 0);
  // The calling core itself caches translations for the extents.
  for (std::uint64_t p = 0; p < kLargePages; ++p) {
    jvm.address_space().HwPtr(ctx, a + p * sim::kPageSize);
    jvm.address_space().HwPtr(ctx, b + p * sim::kPageSize);
  }
  sim::SwapVaOptions opts;
  opts.tlb_policy = sim::TlbPolicy::kLocalOnly;

  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kSpuriousLocalFlush, {.first = 0});
  ASSERT_EQ(sim.kernel.SysSwapVa(jvm.address_space(), ctx, a, b, kLargePages,
                                 opts),
            sim::SysStatus::kOk);
  ASSERT_EQ(injector_.fires(sim::FaultPoint::kSpuriousLocalFlush), 1u);
  // The end-of-call flush hit the wrong address space: the caller's own TLB
  // still maps the swapped pages to their old frames.
  const rt::VerifyResult coherence = verify::CheckTlbCoherence(jvm);
  EXPECT_FALSE(coherence.ok);
  EXPECT_NE(coherence.error.find("core 0"), std::string::npos)
      << coherence.error;
}

// --- kSwapVaFault: error-coded, partial vector completion --------------------

TEST_F(FaultInjectionTest, SwapFaultMidVectorReturnsPartialCompletion) {
  SimBundle sim(2);
  sim::AddressSpace as(sim.machine, sim.phys);
  constexpr std::uint64_t kPages = 32;
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, kPages * sim::kPageSize);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    as.WriteWord(base + i * sim::kPageSize, 100 + i);
  }
  // Four disjoint 4-page swaps: (0..3 <-> 4..7), (8..11 <-> 12..15), ...
  std::vector<sim::SwapRequest> requests;
  for (std::uint64_t r = 0; r < 4; ++r) {
    requests.push_back({base + (8 * r) * sim::kPageSize,
                        base + (8 * r + 4) * sim::kPageSize, 4});
  }
  sim::CpuContext ctx(sim.machine, 0);

  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kSwapVaFault, {.first = 2});
  const sim::SwapVecResult result =
      sim.kernel.SysSwapVaVec(as, ctx, requests, sim::SwapVaOptions{});
  EXPECT_EQ(result.status, sim::SysStatus::kFault);
  EXPECT_EQ(result.completed, 2u);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    const std::uint64_t expected =
        i < 16 ? 100 + (i ^ 4)  // first two requests applied (pages 0..15)
               : 100 + i;       // faulted request and its successor untouched
    ASSERT_EQ(as.ReadWord(base + i * sim::kPageSize), expected) << i;
  }
}

TEST_F(FaultInjectionTest, ObjectMoverRecoversFromMidVectorFault) {
  SimBundle sim(2, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 96ULL << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  const rt::vaddr_t to_space = jvm.heap().end() + (1ULL << 24);
  jvm.address_space().MapRange(to_space, 16ULL << 20);

  std::vector<rt::vaddr_t> survivors;
  for (std::uint64_t i = 0; i < 4; ++i) survivors.push_back(NewLarge(jvm, i));

  core::ObjectMover mover(jvm, core::MoveObjectConfig{});
  sim::CpuContext ctx(sim.machine, 0);
  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kSwapVaFault, {.first = 2});
  const std::vector<rt::vaddr_t> destinations =
      MoveToSpace(jvm, mover, ctx, survivors, to_space);

  // The mover swapped the completed prefix and finished the rest by copy —
  // no move was lost.
  const core::MoveObjectStats& stats = mover.stats();
  EXPECT_EQ(stats.swap_faults_recovered, 1u);
  EXPECT_EQ(stats.objects_swapped, 2u);
  EXPECT_EQ(stats.objects_copied, 2u);
  ASSERT_EQ(destinations.size(), 4u);
  std::uint64_t tag = 0;
  for (const rt::vaddr_t dst : destinations) {
    rt::ObjectView view = jvm.View(dst);
    ASSERT_EQ(view.size(), rt::ObjectBytes(0, kLargeData));
    for (std::uint64_t w = 0; w < view.data_words(); w += 101) {
      ASSERT_EQ(view.data_word(w), tag * 1000003 + w) << "object " << tag;
    }
    ++tag;
  }
  jvm.address_space().UnmapRange(to_space, 16ULL << 20);
}

// --- kHugeSwapFault: all-or-nothing rollback of the PMD-swap half ------------

TEST_F(FaultInjectionTest, HugeSwapFaultRollsBackPmdExchanges) {
  SimBundle sim(2, 128ULL << 20);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 33;
  as.MapRangeHuge(base, 8 * sim::kHugePageSize);
  auto page = [&](std::uint64_t p) { return base + p * sim::kPageSize; };
  // Ragged request: one full unit plus an 8-page tail per side — the fault
  // fires exactly between the PMD-swap half and the PTE-fallback half.
  const std::uint64_t pages = sim::kPagesPerHuge + 8;
  for (std::uint64_t p = 0; p < pages; ++p) {
    as.WriteWord(page(p), 100 + p);
    as.WriteWord(page(4 * sim::kPagesPerHuge + p), 90000 + p);
  }
  sim::SwapVaOptions opts;
  opts.pmd_swapping = true;
  sim::CpuContext ctx(sim.machine, 0);

  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kHugeSwapFault, {.first = 0});
  EXPECT_EQ(sim.kernel.SysSwapVa(as, ctx, base,
                                 base + 4 * sim::kHugePageSize, pages, opts),
            sim::SysStatus::kFault);
  EXPECT_EQ(injector_.fires(sim::FaultPoint::kHugeSwapFault), 1u);

  // The exchanged PMD entries were re-exchanged (involution): semantically
  // no work was done, nothing was booked, no table/leaf aliasing remains.
  for (std::uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(as.ReadWord(page(p)), 100 + p) << p;
    ASSERT_EQ(as.ReadWord(page(4 * sim::kPagesPerHuge + p)), 90000 + p) << p;
  }
  EXPECT_EQ(sim.kernel.pages_swapped(), 0u);
  EXPECT_EQ(sim.kernel.pmd_swaps(), 0u);
  EXPECT_EQ(sim.kernel.pte_swaps(), 0u);
  EXPECT_EQ(as.translation().CountAliasedUnits(), 0u);

  // Unarmed retry completes normally and books the counter identity.
  ASSERT_EQ(sim.kernel.SysSwapVa(as, ctx, base,
                                 base + 4 * sim::kHugePageSize, pages, opts),
            sim::SysStatus::kOk);
  for (std::uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(as.ReadWord(page(p)), 90000 + p) << p;
    ASSERT_EQ(as.ReadWord(page(4 * sim::kPagesPerHuge + p)), 100 + p) << p;
  }
  EXPECT_EQ(sim.kernel.pmd_swaps() * sim::kPagesPerHuge +
                sim.kernel.pte_swaps(),
            sim.kernel.pages_swapped());
}

TEST_F(FaultInjectionTest, HugeSwapFaultMidVectorKeepsPrefixAtomicity) {
  SimBundle sim(2, 256ULL << 20);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 33;
  as.MapRangeHuge(base, 12 * sim::kHugePageSize);
  auto unit = [&](std::uint64_t u) { return base + u * sim::kHugePageSize; };
  for (std::uint64_t u = 0; u < 12; ++u) {
    as.WriteWord(unit(u), 7000 + u);
  }
  // Three one-unit swaps: u0<->u6, u1<->u7, u2<->u8; the second faults.
  std::vector<sim::SwapRequest> requests;
  for (std::uint64_t r = 0; r < 3; ++r) {
    requests.push_back({unit(r), unit(6 + r), sim::kPagesPerHuge});
  }
  sim::SwapVaOptions opts;
  opts.pmd_swapping = true;
  sim::CpuContext ctx(sim.machine, 0);

  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kHugeSwapFault, {.first = 1});
  const sim::SwapVecResult result =
      sim.kernel.SysSwapVaVec(as, ctx, requests, opts);
  EXPECT_EQ(result.status, sim::SysStatus::kFault);
  EXPECT_EQ(result.completed, 1u);
  // Request 0 applied; the faulted request rolled back; request 2 untouched.
  EXPECT_EQ(as.ReadWord(unit(0)), 7006u);
  EXPECT_EQ(as.ReadWord(unit(6)), 7000u);
  for (const std::uint64_t u : {1ull, 2ull, 7ull, 8ull}) {
    EXPECT_EQ(as.ReadWord(unit(u)), 7000 + u) << u;
  }
  EXPECT_EQ(as.translation().CountAliasedUnits(), 0u);
}

// --- kForceUnpin: error-coded (kNotPinned) -----------------------------------

TEST_F(FaultInjectionTest, ForceUnpinSurfacesNotPinned) {
  SimBundle sim(2);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, 8 * sim::kPageSize);
  for (std::uint64_t i = 0; i < 8; ++i) {
    as.WriteWord(base + i * sim::kPageSize, 500 + i);
  }
  sim::CpuContext ctx(sim.machine, 0);
  ASSERT_EQ(sim.kernel.SysPin(ctx), sim::SysStatus::kOk);

  sim::SwapVaOptions opts;
  opts.tlb_policy = sim::TlbPolicy::kLocalOnly;
  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kForceUnpin, {.first = 0});
  EXPECT_EQ(sim.kernel.SysSwapVa(as, ctx, base, base + 4 * sim::kPageSize, 4,
                                 opts),
            sim::SysStatus::kNotPinned);
  // The refused call did no work.
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(as.ReadWord(base + i * sim::kPageSize), 500 + i) << i;
  }
}

TEST_F(FaultInjectionTest, ObjectMoverRecoversFromPinLoss) {
  SimBundle sim(2, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 96ULL << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  const rt::vaddr_t to_space = jvm.heap().end() + (1ULL << 24);
  jvm.address_space().MapRange(to_space, 16ULL << 20);

  std::vector<rt::vaddr_t> survivors;
  for (std::uint64_t i = 0; i < 4; ++i) survivors.push_back(NewLarge(jvm, i));

  core::ObjectMover mover(jvm, core::MoveObjectConfig{});
  sim::CpuContext ctx(sim.machine, 0);
  ASSERT_EQ(sim.kernel.SysPin(ctx), sim::SysStatus::kOk);

  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kForceUnpin, {.first = 0});
  const std::vector<rt::vaddr_t> destinations =
      MoveToSpace(jvm, mover, ctx, survivors, to_space);

  // The first aggregated call lost its pin; the mover re-pinned, re-flushed
  // and retried — all four objects still went through SwapVA.
  const core::MoveObjectStats& stats = mover.stats();
  EXPECT_EQ(stats.pin_losses_recovered, 1u);
  EXPECT_EQ(stats.swap_faults_recovered, 0u);
  EXPECT_EQ(stats.objects_swapped, 4u);
  ASSERT_EQ(destinations.size(), 4u);
  std::uint64_t tag = 0;
  for (const rt::vaddr_t dst : destinations) {
    rt::ObjectView view = jvm.View(dst);
    for (std::uint64_t w = 0; w < view.data_words(); w += 101) {
      ASSERT_EQ(view.data_word(w), tag * 1000003 + w) << "object " << tag;
    }
    ++tag;
  }
  jvm.address_space().UnmapRange(to_space, 16ULL << 20);
}

// --- kRefusePin: error-coded, collector falls back to global shootdowns ------

TEST_F(FaultInjectionTest, RefusedPinFallsBackToGlobalShootdowns) {
  SimBundle sim(4, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 64ULL << 20;
  config.gc_threads = 2;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  auto owned = std::make_unique<core::SvagcCollector>(sim.machine,
                                                      /*gc_threads=*/2,
                                                      /*first_core=*/0);
  core::SvagcCollector* collector = owned.get();
  jvm.set_collector(std::move(owned));

  // Garbage/live alternation: every rooted large object must slide down.
  for (std::uint64_t i = 0; i < 6; ++i) {
    NewLarge(jvm, 100 + i);  // unrooted -> garbage
    jvm.roots().Add(NewLarge(jvm, i));
  }
  const std::uint64_t checksum = ChecksumReachable(jvm);

  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kRefusePin, {.first = 0});
  jvm.collector().Collect(jvm);

  const telemetry::MetricsRegistry& metrics = collector->metrics();
  EXPECT_EQ(metrics.CounterValue("gc.pin_refusals"), 1u);
  // The cycle still swapped (with per-call shootdowns) and stayed correct.
  EXPECT_GT(metrics.CounterValue("gc.objects_swapped"), 0u);
  EXPECT_EQ(ChecksumReachable(jvm), checksum);
  const auto report = verify::InvariantRegistry::Default().RunAll(jvm);
  EXPECT_TRUE(report.ok) << report.Describe();
}

// --- whole-collection resilience and controls --------------------------------

TEST_F(FaultInjectionTest, FullCollectionSurvivesInjectedVecFault) {
  SimBundle sim(4, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 64ULL << 20;
  config.gc_threads = 2;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  auto owned = std::make_unique<core::SvagcCollector>(sim.machine, 2, 0);
  core::SvagcCollector* collector = owned.get();
  jvm.set_collector(std::move(owned));

  for (std::uint64_t i = 0; i < 6; ++i) {
    NewLarge(jvm, 200 + i);  // garbage
    jvm.roots().Add(NewLarge(jvm, i));
  }
  const std::uint64_t checksum = ChecksumReachable(jvm);

  verify::ScopedInjection hook(sim.kernel, injector_);
  injector_.Arm(sim::FaultPoint::kSwapVaFault, {.first = 0});
  jvm.collector().Collect(jvm);

  EXPECT_GE(collector->metrics().CounterValue("gc.swap_faults_recovered"), 1u);
  EXPECT_EQ(ChecksumReachable(jvm), checksum);
  const auto report = verify::InvariantRegistry::Default().RunAll(jvm);
  EXPECT_TRUE(report.ok) << report.Describe();
}

TEST_F(FaultInjectionTest, ControlRunWithInjectorAttachedButUnarmed) {
  SimBundle sim(4, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 64ULL << 20;
  config.gc_threads = 2;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(std::make_unique<core::SvagcCollector>(sim.machine, 2, 0));

  for (std::uint64_t i = 0; i < 6; ++i) {
    NewLarge(jvm, 300 + i);  // garbage
    jvm.roots().Add(NewLarge(jvm, i));
  }
  const std::uint64_t checksum = ChecksumReachable(jvm);

  verify::ScopedInjection hook(sim.kernel, injector_);
  jvm.collector().Collect(jvm);

  // Attached but unarmed: nothing fires, everything holds.
  EXPECT_EQ(injector_.total_fires(), 0u);
  EXPECT_GT(injector_.occurrences(sim::FaultPoint::kSwapVaFault), 0u);
  EXPECT_EQ(ChecksumReachable(jvm), checksum);
  const auto report = verify::InvariantRegistry::Default().RunAll(jvm);
  EXPECT_TRUE(report.ok) << report.Describe();
}

// --- kDropEpochBroadcast: error-coded, arbiter falls back per member ---------

// The fleet arbiter's multi-ASID epoch broadcast returns kFault when the
// shootdown round is dropped; the kernel has already applied the local
// halves, and the arbiter must recover by issuing each member's ordinary
// process flush instead. End to end: every epoch broadcast of a 4-tenant
// fleet is dropped, the fleet completes, every heap verifies, and the final
// heaps are semantically identical to an uninjected run.
TEST_F(FaultInjectionTest, DroppedEpochBroadcastFallsBackAndRecovers) {
  auto make_config = [] {
    fleet::FleetConfig config;
    config.run.workload = "lrucache";
    config.run.collector = workloads::CollectorKind::kSvagc;
    config.run.gc_threads = 2;
    config.run.iterations = 8;
    config.run.verify_heap = true;
    config.tenants = 4;
    config.arbiter = fleet::ArbiterBatch();
    config.digest_heaps = true;
    return config;
  };

  const fleet::FleetResult clean = fleet::RunFleet(make_config());
  ASSERT_GT(clean.epoch_broadcasts, 0u);
  ASSERT_EQ(clean.broadcast_fallbacks, 0u);

  injector_.Arm(sim::FaultPoint::kDropEpochBroadcast,
                {.first = 0, .every = 1, .max_fires = 0});
  fleet::FleetConfig injected_config = make_config();
  injected_config.fault_hook = &injector_;
  const fleet::FleetResult injected = fleet::RunFleet(injected_config);

  // Every broadcast faulted and fell back; the run still finished with the
  // verifier on, and the heaps match the clean fleet object for object.
  EXPECT_GE(injector_.fires(sim::FaultPoint::kDropEpochBroadcast), 1u);
  EXPECT_EQ(injected.broadcast_fallbacks, injected.epoch_broadcasts);
  EXPECT_EQ(injected.epoch_broadcasts, clean.epoch_broadcasts);
  ASSERT_EQ(injected.tenants.size(), clean.tenants.size());
  for (std::size_t j = 0; j < clean.tenants.size(); ++j) {
    EXPECT_EQ(injected.tenants[j].gc_count, clean.tenants[j].gc_count) << j;
    EXPECT_EQ(injected.tenants[j].heap_digest, clean.tenants[j].heap_digest)
        << j;
  }
  // The fallback path costs per-member broadcasts, so the injected fleet
  // sends strictly more IPIs than the batched clean fleet.
  EXPECT_GT(injected.ipis_sent, clean.ipis_sent);
}

// --- deathtest coexistence ---------------------------------------------------

// A deathtest child that armed faults and then aborted must not leave any
// armed state behind in the parent: the child is a separate process, and the
// parent's injector was never attached.
TEST_F(FaultInjectionTest, AbortsDontLeakArmedFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        SimBundle sim(1);
        sim::AddressSpace as(sim.machine, sim.phys);
        as.MapRange(1ULL << 32, 16 * sim::kPageSize);
        sim::CpuContext ctx(sim.machine, 0);
        verify::FaultInjector child_injector(42);
        verify::ScopedInjection hook(sim.kernel, child_injector);
        child_injector.Arm(sim::FaultPoint::kSwapVaFault, {.first = 0});
        // Unaligned address: CHECK-aborts inside the syscall, with the
        // injector still attached and armed.
        sim.kernel.SysSwapVa(as, ctx, (1ULL << 32) + 8,
                             (1ULL << 32) + 8 * sim::kPageSize, 2,
                             sim::SwapVaOptions{});
      },
      "CHECK failed");
  // The fixture injector in *this* process saw none of it.
  EXPECT_EQ(injector_.total_fires(), 0u);
  EXPECT_EQ(injector_.occurrences(sim::FaultPoint::kSwapVaFault), 0u);
}

// Runs after the deathtest in registration order: a fresh kernel must start
// with no hook attached, and swaps must succeed unperturbed.
TEST_F(FaultInjectionTest, StateIsCleanAfterDeathTest) {
  SimBundle sim(1);
  EXPECT_EQ(sim.kernel.fault_hook(), nullptr);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, 8 * sim::kPageSize);
  as.WriteWord(base, 1);
  as.WriteWord(base + 4 * sim::kPageSize, 2);
  sim::CpuContext ctx(sim.machine, 0);
  EXPECT_EQ(sim.kernel.SysSwapVa(as, ctx, base, base + 4 * sim::kPageSize, 4,
                                 sim::SwapVaOptions{}),
            sim::SysStatus::kOk);
  EXPECT_EQ(as.ReadWord(base), 2u);
  EXPECT_EQ(injector_.total_fires(), 0u);
}

// --- faults against the mutator-concurrent collector -------------------------

// Rig: rooted + garbage large objects under the mutator-concurrent collector
// with a small quantum, so the cycle's evacuation splits into several [STW]
// windows — and the rig performs barriered reads between every quantum, the
// exact interleaving the fault has to corrupt to be dangerous.
class ConcurrentFaultRig {
 public:
  ConcurrentFaultRig() : sim_(4, 512ULL << 20) {
    rt::JvmConfig config;
    config.heap.capacity = 64ULL << 20;
    config.gc_threads = 2;
    jvm_ = std::make_unique<rt::Jvm>(sim_.machine, sim_.phys, sim_.kernel,
                                     config);
    core::ConcurrentSvagcConfig cc;
    // Small enough that one window holds only a couple of large-object
    // moves (a SwapVA move is just page-table relinks — a few thousand
    // cycles), so the cycle takes several evacuation windows.
    cc.quantum_cycles = 2500;
    auto owned = std::make_unique<core::ConcurrentSvagcCollector>(
        sim_.machine, /*first_core=*/0, cc);
    collector_ = owned.get();
    jvm_->set_collector(std::move(owned));
    jvm_->set_gc_barrier(collector_);
    for (std::uint64_t i = 0; i < 6; ++i) {
      NewLarge(*jvm_, 200 + i);  // garbage, so the survivors slide left
      rooted_.emplace_back(jvm_->roots().Add(NewLarge(*jvm_, i)), i);
    }
  }

  rt::Jvm& jvm() { return *jvm_; }
  sim::Kernel& kernel() { return sim_.kernel; }
  // The collector's registry counter `name`.
  std::uint64_t Counter(const char* name) const {
    return collector_->metrics().CounterValue(name);
  }

  // One full cycle, stepped; between quanta every rooted object is read
  // through the barrier and its stamp checked — a stale pre-forwarding
  // address or an un-flushed mapping would surface right here.
  void DriveCycle() {
    collector_->BeginCycle(*jvm_);
    while (collector_->cycle_active()) {
      collector_->StepPhase();
      for (const auto& [handle, tag] : rooted_) {
        const rt::vaddr_t name = jvm_->ReadRoot(handle);
        ASSERT_NE(name, 0u);
        EXPECT_EQ(jvm_->View(jvm_->ResolveRef(name)).data_word(0),
                  tag * 1000003);
      }
    }
  }

  unsigned EvacWindows() const {
    unsigned n = 0;
    for (const core::StwWindow& w : collector_->stw_windows()) {
      if (w.phase == core::ConcPhase::kEvacuate) ++n;
    }
    return n;
  }

 private:
  SimBundle sim_;
  std::unique_ptr<rt::Jvm> jvm_;
  core::ConcurrentSvagcCollector* collector_ = nullptr;
  std::vector<std::pair<rt::RootSet::Handle, std::uint64_t>> rooted_;
};

// kSwapVaFault mid-incremental-evacuation: the mover's per-object recovery
// (finish the move by copy) must hold across window boundaries too.
TEST_F(FaultInjectionTest, ConcurrentEvacuationRecoversFromSwapFault) {
  ConcurrentFaultRig rig;
  const std::uint64_t checksum = ChecksumReachable(rig.jvm());

  verify::ScopedInjection hook(rig.kernel(), injector_);
  injector_.Arm(sim::FaultPoint::kSwapVaFault, {.first = 0});
  rig.DriveCycle();

  EXPECT_EQ(injector_.fires(sim::FaultPoint::kSwapVaFault), 1u);
  EXPECT_GE(rig.Counter("gc.swap_faults_recovered"), 1u);
  EXPECT_GE(rig.EvacWindows(), 2u);  // the fault really was mid-evacuation
  EXPECT_EQ(ChecksumReachable(rig.jvm()), checksum);
  const auto report = verify::InvariantRegistry::Default().RunAll(rig.jvm());
  EXPECT_TRUE(report.ok) << report.Describe();
}

// kDropEpochBroadcast during incremental relink: every per-window multi-ASID
// flush round is dropped; the collector must complete each window with the
// ordinary per-process flush instead, and no stale translation may survive
// into the mutator intervals between windows.
TEST_F(FaultInjectionTest, ConcurrentRelinkSurvivesDroppedWindowFlush) {
  ConcurrentFaultRig rig;
  const std::uint64_t checksum = ChecksumReachable(rig.jvm());

  verify::ScopedInjection hook(rig.kernel(), injector_);
  injector_.Arm(sim::FaultPoint::kDropEpochBroadcast,
                {.first = 0, .every = 1, .max_fires = 0});
  rig.DriveCycle();

  const std::uint64_t fires =
      injector_.fires(sim::FaultPoint::kDropEpochBroadcast);
  EXPECT_GE(fires, 2u);  // one per evacuation window, several windows
  EXPECT_EQ(rig.Counter("gc.window_flush_fallbacks"), fires);
  EXPECT_GE(rig.EvacWindows(), 2u);
  EXPECT_EQ(ChecksumReachable(rig.jvm()), checksum);
  const auto report = verify::InvariantRegistry::Default().RunAll(rig.jvm());
  EXPECT_TRUE(report.ok) << report.Describe();
}

// kRefusePin at the first evacuation window: the whole incremental
// evacuation falls back to per-call global shootdowns (no pin, no per-window
// batched flushes) and still converges.
TEST_F(FaultInjectionTest, ConcurrentEvacuationRefusedPinFallsBack) {
  ConcurrentFaultRig rig;
  const std::uint64_t checksum = ChecksumReachable(rig.jvm());

  verify::ScopedInjection hook(rig.kernel(), injector_);
  injector_.Arm(sim::FaultPoint::kRefusePin, {.first = 0});
  rig.DriveCycle();

  EXPECT_EQ(injector_.fires(sim::FaultPoint::kRefusePin), 1u);
  EXPECT_EQ(rig.Counter("gc.pin_refusals"), 1u);
  // Unpinned regime: the per-window batched flush path must not have run.
  EXPECT_EQ(rig.Counter("gc.window_flush_fallbacks"), 0u);
  EXPECT_EQ(ChecksumReachable(rig.jvm()), checksum);
  const auto report = verify::InvariantRegistry::Default().RunAll(rig.jvm());
  EXPECT_TRUE(report.ok) << report.Describe();
}

// The differential oracle in concurrent mode, with swap faults injected into
// the compared (swap-arm) cycle only: recovery must converge to the very
// heap the clean memmove arm produces — the strongest statement that the
// fallback is semantics-preserving.
TEST_F(FaultInjectionTest, ConcurrentOracleMatchesUnderInjectedSwapFaults) {
  verify::OracleConfig config;
  config.workload = "lrucache";
  config.concurrent = true;
  config.large_object_salt = 3;
  config.swap_arm_fault_hook = &injector_;
  injector_.Arm(sim::FaultPoint::kSwapVaFault,
                {.first = 0, .every = 3, .max_fires = 0});
  const verify::OracleResult result = verify::RunDifferentialOracle(config);

  EXPECT_GE(injector_.fires(sim::FaultPoint::kSwapVaFault), 1u);
  EXPECT_TRUE(result.match) << result.divergence;
  EXPECT_GT(result.objects, 0u);
  EXPECT_TRUE(result.invariants_swap.ok) << result.invariants_swap.Describe();
  EXPECT_TRUE(result.invariants_copy.ok) << result.invariants_copy.Describe();
}

}  // namespace
}  // namespace svagc
