// Generational front-end tests (ROADMAP item 4): minor-GC correctness.
//
//   * Digest identity — minor+full runs must leave the exact same reachable
//     object graph as full-only runs, across three churn workloads and both
//     translation backends (the ISSUE acceptance criterion, asserted here,
//     not just in the fig24 bench).
//   * Memmove collectors — the same digest identity with the front end ahead
//     of ParallelGC, Shenandoah and SerialLISP2, whose heaps do not
//     page-align large objects.
//   * Remembered-set superset oracle — runs with verify_remset=true, which
//     walks the whole old space after every minor collection and CHECKs that
//     every old→young reference slot is covered by remset ∪ store buffers.
//   * Age-counter / premature-tenure units — a direct collector rig drives
//     explicit MinorCollect calls and watches a single object age in place,
//     a small object age across zone-to-zone copies, and a packed-full
//     nursery fall back to premature tenuring.
//   * PressureGovernor units — the SWAM-style escalation triggers, their
//     hysteresis gate, and the post-full reset, against a pure governor.
//   * GenerationalSoak.* — the generational_soak ctest leg; honors
//     SVAGC_SOAK_SCALE like the fleet/concurrent/overcommit soaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/generational_collector.h"
#include "core/svagc_collector.h"
#include "runtime/heap_verifier.h"
#include "verify/graph_digest.h"
#include "workloads/runner.h"

namespace svagc {
namespace {

using sim::TranslationBackend;
using sim::TranslationBackendName;
using workloads::CollectorKind;
using workloads::MakeTenant;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::RunWorkload;
using workloads::TenantBundle;

std::string BackendName(
    const ::testing::TestParamInfo<TranslationBackend>& info) {
  return TranslationBackendName(info.param);
}

std::uint64_t SoakScale() {
  const char* env = std::getenv("SVAGC_SOAK_SCALE");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? static_cast<std::uint64_t>(v) : 1;
}

constexpr const char* kChurnWorkloads[] = {"lrucache", "pagerank", "compress"};

// --- digest identity --------------------------------------------------------

struct DigestOutcome {
  std::uint64_t digest = 0;
  std::uint64_t minors = 0;
  std::uint64_t fulls = 0;
};

// Mirrors RunWorkload's driving loop but digests the reachable graph before
// the bundle is torn down (RunWorkload only harvests counters). `tenant` is
// the MakeTenant slot, which seeds the workload's stream.
DigestOutcome RunForDigest(const RunConfig& config, unsigned tenant = 0) {
  const sim::CostProfile& profile =
      config.profile != nullptr ? *config.profile : sim::ProfileXeonGold6130();
  sim::Machine machine(config.machine_cores, profile,
                       config.translation_backend);
  sim::Kernel kernel(machine);

  auto probe = workloads::MakeWorkload(config.workload);
  SVAGC_CHECK(probe != nullptr);
  const std::uint64_t heap_bytes = static_cast<std::uint64_t>(
      static_cast<double>(probe->info().min_heap_bytes) * config.heap_factor);
  sim::PhysicalMemory phys(heap_bytes + (8ULL << 20));

  TenantBundle bundle = MakeTenant(config, machine, phys, kernel, tenant,
                                   /*mutator_core=*/0, /*gc_first_core=*/0,
                                   /*heap_base=*/1ULL << 32);
  bundle.workload->Setup(*bundle.jvm);
  const unsigned iterations = config.iterations != 0
                                  ? config.iterations
                                  : bundle.workload->default_iterations();
  for (unsigned i = 0; i < iterations; ++i) {
    bundle.workload->Iterate(*bundle.jvm);
  }

  DigestOutcome out;
  out.digest = verify::DigestReachableGraph(*bundle.jvm);
  if (config.verify_heap) {
    const rt::VerifyResult verify = rt::VerifyHeap(*bundle.jvm);
    EXPECT_TRUE(verify.ok) << config.workload << ": " << verify.error;
  }
  if (auto* gen = dynamic_cast<core::GenerationalCollector*>(
          &bundle.jvm->collector())) {
    out.minors = gen->minor_collections();
    out.fulls = gen->full_collections();
    if (config.generational.verify_remset) {
      gen->VerifyRememberedSetAgainstHeap(*bundle.jvm);
    }
  }
  return out;
}

RunConfig ChurnConfig(const std::string& workload, TranslationBackend backend,
                      unsigned iterations) {
  RunConfig config;
  config.workload = workload;
  config.collector = CollectorKind::kSvagc;
  config.heap_factor = 2.0;
  config.iterations = iterations;
  config.translation_backend = backend;
  return config;
}

class GenerationalDigest : public ::testing::TestWithParam<TranslationBackend> {
};

// The acceptance criterion: minor+full heap digests identical to full-only
// runs across >= 3 churn workloads — a minor collection that loses, corrupts,
// or duplicates an object (or misses a remembered-set edge and scavenges a
// reachable object as garbage) shows up as a digest mismatch.
TEST_P(GenerationalDigest, MinorPlusFullMatchesFullOnly) {
  for (const char* workload : kChurnWorkloads) {
    RunConfig off = ChurnConfig(workload, GetParam(), 40);
    off.generational.enabled = false;
    const DigestOutcome base = RunForDigest(off);

    RunConfig minor_only = off;
    minor_only.generational.enabled = true;
    minor_only.generational.pressure = false;
    const DigestOutcome gen = RunForDigest(minor_only);
    EXPECT_GT(gen.minors, 0u) << workload << ": nursery never scavenged";
    EXPECT_EQ(base.digest, gen.digest) << workload << " minor-only";

    RunConfig pressured = off;
    pressured.generational.enabled = true;
    pressured.generational.pressure = true;
    const DigestOutcome esc = RunForDigest(pressured);
    EXPECT_GT(esc.minors, 0u) << workload << ": nursery never scavenged";
    EXPECT_EQ(base.digest, esc.digest) << workload << " minor+pressure";
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, GenerationalDigest,
                         ::testing::Values(TranslationBackend::kRadix,
                                           TranslationBackend::kHashed),
                         BackendName);

// --- memmove collectors -----------------------------------------------------

// The front end ahead of a collector whose heap does not page-align large
// objects. The nursery must lay survivors out by that heap's rule (a copy
// group packs its members, so an aligned member would overrun the group) and
// must copy them: a SwapVA of an object that does not own its last page
// carries a neighbour's bytes along.
using MemmoveCase = std::tuple<CollectorKind, std::string>;

class GenerationalMemmove : public ::testing::TestWithParam<MemmoveCase> {};

TEST_P(GenerationalMemmove, MinorPlusFullMatchesFullOnly) {
  const auto& [kind, workload] = GetParam();
  RunConfig off = ChurnConfig(workload, TranslationBackend::kRadix, 40);
  off.collector = kind;
  off.verify_heap = true;
  const DigestOutcome base = RunForDigest(off);

  RunConfig gen = off;
  gen.generational.enabled = true;
  const DigestOutcome out = RunForDigest(gen);
  EXPECT_GT(out.minors, 0u) << "nursery never scavenged";
  EXPECT_EQ(base.digest, out.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, GenerationalMemmove,
    ::testing::Combine(::testing::Values(CollectorKind::kParallelGc,
                                         CollectorKind::kShenandoah,
                                         CollectorKind::kSerialLisp2),
                       ::testing::Values("lrucache", "fft.large",
                                         "sparse.large")),
    [](const ::testing::TestParamInfo<MemmoveCase>& info) {
      std::string name = std::string(workloads::CollectorKindName(
                             std::get<0>(info.param))) +
                         "_" + std::get<1>(info.param);
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

// --- remembered-set superset oracle -----------------------------------------

// verify_remset makes the collector walk every old-space object after every
// minor collection and CHECK that each old→young slot is covered by the
// remembered set (drained entries ∪ pending store buffers). A missed barrier
// or an over-eager prune aborts the run.
TEST(GenerationalRemset, SupersetOracleHoldsEveryMinor) {
  for (const char* workload : {"lrucache", "pagerank"}) {
    RunConfig config = ChurnConfig(workload, TranslationBackend::kRadix, 30);
    config.generational.enabled = true;
    config.generational.verify_remset = true;
    config.verify_heap = true;
    const RunResult result = RunWorkload(config);
    EXPECT_GT(result.gc_minor_count, 0u) << workload;
  }
}

// --- age-counter / premature-tenure units -----------------------------------

// Direct rig: a generational collector over a real SVAGC inner, driven by
// explicit MinorCollect calls (same wiring the runner uses).
struct Rig {
  sim::Machine machine{8, sim::ProfileXeonGold6130()};
  sim::Kernel kernel{machine};
  sim::PhysicalMemory phys{512ULL << 20};
  std::unique_ptr<rt::Jvm> jvm;
  core::GenerationalCollector* front = nullptr;

  explicit Rig(const core::GenerationalConfig& gen) {
    rt::JvmConfig config;
    config.heap.capacity = 256ULL << 20;
    config.heap.page_align_large = true;
    jvm = std::make_unique<rt::Jvm>(machine, phys, kernel, config);
    auto inner = std::make_unique<core::SvagcCollector>(
        machine, /*gc_threads=*/2, /*first_core=*/0, core::SvagcConfig{});
    auto collector = std::make_unique<core::GenerationalCollector>(
        machine, /*first_core=*/0, std::move(inner), gen);
    front = collector.get();
    jvm->set_collector(std::move(collector));
    jvm->set_gc_barrier(front);
    jvm->set_alloc_front_end(front);
  }
};

core::GenerationalConfig RigConfig(unsigned tenure_age) {
  core::GenerationalConfig gen;
  gen.young_bytes = 32ULL << 20;
  gen.bypass_bytes = 512ULL << 10;
  gen.tenure_age = tenure_age;
  gen.gang_workers = 2;
  return gen;
}

// A page-aligned own-run survivor ages *in place*: same address for
// tenure_age - 1 minors, then one SwapVA-eligible move to the old space.
TEST(GenerationalAging, OwnRunSurvivorAgesInPlaceThenTenures) {
  Rig rig(RigConfig(/*tenure_age=*/3));
  rt::Jvm& jvm = *rig.jvm;

  // 64 KiB: large-class (>= 10 pages) but below bypass, so it gets its own
  // page-aligned young run.
  const rt::RootSet::Handle h = jvm.roots().Add(jvm.New(7, 0, 64ULL << 10));
  const rt::vaddr_t born = jvm.roots().Get(h);
  jvm.View(born).set_data_word(0, 0xfeedface);
  ASSERT_TRUE(rig.front->young() != nullptr);
  ASSERT_TRUE(rig.front->young()->Contains(born));

  for (unsigned minor = 1; minor < 3; ++minor) {
    ASSERT_TRUE(rig.front->MinorCollect(jvm));
    EXPECT_EQ(rig.front->last_minor().stayed, 1u) << "minor " << minor;
    EXPECT_EQ(rig.front->last_minor().tenured, 0u) << "minor " << minor;
    EXPECT_EQ(jvm.roots().Get(h), born) << "in-place aging moved the object";
  }

  ASSERT_TRUE(rig.front->MinorCollect(jvm));
  EXPECT_EQ(rig.front->last_minor().tenured, 1u);
  EXPECT_EQ(rig.front->last_minor().premature_tenured, 0u);
  const rt::vaddr_t tenured = jvm.roots().Get(h);
  EXPECT_NE(tenured, born);
  EXPECT_FALSE(rig.front->young()->Contains(tenured));
  EXPECT_EQ(jvm.View(tenured).type_id(), 7u);
  EXPECT_EQ(jvm.View(tenured).data_word(0), 0xfeedfaceull);
  EXPECT_GT(rig.front->promoted_bytes(), 64ULL << 10);
}

// A small zone-resident survivor is copied zone-to-zone into dead space each
// minor (so its address may change) but keeps its age counter across copies
// and tenures exactly at tenure_age.
TEST(GenerationalAging, SmallSurvivorKeepsAgeAcrossCopies) {
  Rig rig(RigConfig(/*tenure_age=*/3));
  rt::Jvm& jvm = *rig.jvm;

  const rt::RootSet::Handle h = jvm.roots().Add(jvm.New(9, 0, 1024));
  jvm.View(jvm.roots().Get(h)).set_data_word(0, 0xabad1dea);

  for (unsigned minor = 1; minor < 3; ++minor) {
    // Plenty of short-lived garbage so the packer always has dead space.
    for (unsigned i = 0; i < 2048; ++i) (void)jvm.New(1, 0, 512);
    ASSERT_TRUE(rig.front->MinorCollect(jvm));
    EXPECT_EQ(rig.front->last_minor().stayed, 1u) << "minor " << minor;
    EXPECT_EQ(rig.front->last_minor().tenured, 0u) << "minor " << minor;
    ASSERT_TRUE(rig.front->young()->Contains(jvm.roots().Get(h)));
    EXPECT_EQ(jvm.View(jvm.roots().Get(h)).data_word(0), 0xabad1deaull);
  }

  for (unsigned i = 0; i < 2048; ++i) (void)jvm.New(1, 0, 512);
  ASSERT_TRUE(rig.front->MinorCollect(jvm));
  EXPECT_EQ(rig.front->last_minor().tenured, 1u);
  const rt::vaddr_t tenured = jvm.roots().Get(h);
  EXPECT_FALSE(rig.front->young()->Contains(tenured));
  EXPECT_EQ(jvm.View(tenured).type_id(), 9u);
  EXPECT_EQ(jvm.View(tenured).data_word(0), 0xabad1deaull);
}

// When the live young set packs the extent densely there is no dead space to
// copy stayers into — they tenure prematurely instead of being lost, and the
// premature counter (not just the tenure counter) records it.
TEST(GenerationalAging, PackedNurseryFallsBackToPrematureTenure) {
  core::GenerationalConfig gen = RigConfig(/*tenure_age=*/10);
  gen.young_bytes = 2ULL << 20;
  Rig rig(gen);
  rt::Jvm& jvm = *rig.jvm;

  std::vector<rt::RootSet::Handle> handles;
  for (unsigned i = 0; i < 400; ++i) {
    handles.push_back(jvm.roots().Add(jvm.New(3, 0, 4096)));
    jvm.View(jvm.roots().Get(handles.back())).set_data_word(0, i);
  }

  ASSERT_TRUE(rig.front->MinorCollect(jvm));
  const core::MinorCycleStats& stats = rig.front->last_minor();
  EXPECT_EQ(stats.survivors, 400u);
  EXPECT_EQ(stats.stayed + stats.tenured, stats.survivors);
  EXPECT_GT(stats.premature_tenured, 0u);
  EXPECT_EQ(rig.front->premature_tenures(), stats.premature_tenured);

  for (unsigned i = 0; i < handles.size(); ++i) {
    rt::ObjectView view = jvm.View(jvm.roots().Get(handles[i]));
    EXPECT_EQ(view.type_id(), 3u);
    EXPECT_EQ(view.data_word(0), static_cast<std::uint64_t>(i));
  }
}

// --- PressureGovernor units -------------------------------------------------

core::PressureGovernor::Sample Occupancy(double occ) {
  core::PressureGovernor::Sample s;
  s.old_occupancy = occ;
  return s;
}

TEST(PressureGovernorTest, HysteresisGatesEarlyEscalation) {
  core::PressureGovernor gov{core::PressureConfig{}};
  // min_minors_between_full = 4: even a saturated old space cannot escalate
  // before the fourth minor.
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.95)));
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.95)));
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.95)));
  EXPECT_TRUE(gov.ShouldEscalate(Occupancy(0.95)));
  EXPECT_STREQ(gov.last_reason(), "old-occupancy");
  EXPECT_EQ(gov.occupancy_escalations(), 1u);
}

TEST(PressureGovernorTest, SlopeFiresOnPromotionStorm) {
  core::PressureGovernor gov{core::PressureConfig{}};
  // Needs slope_window + 1 = 5 samples, occupancy past the 0.65 floor, and
  // growth >= 0.15 across the window — a storm, not a drip.
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.50)));
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.52)));
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.55)));
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.58)));
  EXPECT_TRUE(gov.ShouldEscalate(Occupancy(0.70)));
  EXPECT_STREQ(gov.last_reason(), "occupancy-slope");
  EXPECT_EQ(gov.slope_escalations(), 1u);
}

TEST(PressureGovernorTest, SlopeBelowFloorDoesNotFire) {
  core::PressureGovernor gov{core::PressureConfig{}};
  // Same growth, but the absolute occupancy never reaches the slope floor.
  for (const double occ : {0.20, 0.25, 0.30, 0.35, 0.45, 0.55}) {
    EXPECT_FALSE(gov.ShouldEscalate(Occupancy(occ))) << occ;
  }
  EXPECT_EQ(gov.total_escalations(), 0u);
}

TEST(PressureGovernorTest, PromotionRateFires) {
  core::PressureGovernor gov{core::PressureConfig{}};
  core::PressureGovernor::Sample s;
  s.old_occupancy = 0.30;
  s.young_extent_bytes = 1ULL << 20;
  s.promoted_bytes = 600ULL << 10;  // 0.59 of the extent >= 0.50 trigger
  EXPECT_FALSE(gov.ShouldEscalate(s));
  EXPECT_FALSE(gov.ShouldEscalate(s));
  EXPECT_FALSE(gov.ShouldEscalate(s));
  EXPECT_TRUE(gov.ShouldEscalate(s));
  EXPECT_STREQ(gov.last_reason(), "promotion-rate");
  EXPECT_EQ(gov.promotion_escalations(), 1u);
}

TEST(PressureGovernorTest, FarResidencyFires) {
  core::PressureGovernor gov{core::PressureConfig{}};
  core::PressureGovernor::Sample s;
  s.old_occupancy = 0.30;
  s.far_resident_pages = 95;
  s.far_resident_limit = 100;  // 0.95 >= 0.90 trigger
  EXPECT_FALSE(gov.ShouldEscalate(s));
  EXPECT_FALSE(gov.ShouldEscalate(s));
  EXPECT_FALSE(gov.ShouldEscalate(s));
  EXPECT_TRUE(gov.ShouldEscalate(s));
  EXPECT_STREQ(gov.last_reason(), "far-residency");
  EXPECT_EQ(gov.far_escalations(), 1u);
}

TEST(PressureGovernorTest, NoteFullGcResetsHysteresisAndSlope) {
  core::PressureGovernor gov{core::PressureConfig{}};
  for (unsigned i = 0; i < 3; ++i) (void)gov.ShouldEscalate(Occupancy(0.95));
  EXPECT_TRUE(gov.ShouldEscalate(Occupancy(0.95)));
  gov.NoteFullGc();
  // The clock restarts: three more saturated minors stay gated, and the
  // slope history was dropped with them.
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.95)));
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.95)));
  EXPECT_FALSE(gov.ShouldEscalate(Occupancy(0.95)));
  EXPECT_TRUE(gov.ShouldEscalate(Occupancy(0.95)));
  EXPECT_EQ(gov.total_escalations(), 2u);
}

// --- soak -------------------------------------------------------------------

// The generational_soak ctest leg: verified churn runs (remset oracle each
// minor, full heap verifier at the end) with the digest compared against a
// full-only run of the same length, across both translation backends.
// SVAGC_SOAK_SCALE multiplies the iteration count (nightly runs use 10x).
TEST(GenerationalSoak, VerifiedChurnAcrossBackends) {
  const unsigned iterations = static_cast<unsigned>(40 * SoakScale());
  for (const TranslationBackend backend :
       {TranslationBackend::kRadix, TranslationBackend::kHashed}) {
    for (const char* workload : kChurnWorkloads) {
      RunConfig off = ChurnConfig(workload, backend, iterations);
      off.generational.enabled = false;
      const DigestOutcome base = RunForDigest(off);

      RunConfig gen = off;
      gen.generational.enabled = true;
      gen.generational.pressure = true;
      gen.generational.verify_remset = true;
      gen.verify_heap = true;
      const DigestOutcome out = RunForDigest(gen);
      EXPECT_GT(out.minors, 0u)
          << workload << "/" << TranslationBackendName(backend);
      EXPECT_EQ(base.digest, out.digest)
          << workload << "/" << TranslationBackendName(backend);
    }
  }
}

// Long generational lrucache runs in svbench's gen-churn configuration (2.0x
// heap, pressure escalation, SVAGC on two GC threads), in tenant slots 1-3.
// The front end starts full GCs itself, from nursery exhaustion and pressure
// escalation, so a full cycle can begin while a mutator TLAB is still open;
// the cycle must make the heap parsable on its own. A cycle that compacts
// under an open TLAB corrupts these runs near iteration 2266 in slots 1 and
// 3. No verifier runs mid-run: one that closed TLABs would hide that.
TEST(GenerationalSoak, LongGenChurnRunsMatchFullOnly) {
  const unsigned iterations = static_cast<unsigned>(2400 * SoakScale());
  for (unsigned slot = 1; slot <= 3; ++slot) {
    RunConfig off;
    off.workload = "lrucache";
    off.collector = CollectorKind::kSvagc;
    off.heap_factor = 2.0;
    off.gc_threads = 2;
    off.iterations = iterations;
    const DigestOutcome base = RunForDigest(off, slot);

    RunConfig gen = off;
    gen.generational.enabled = true;
    gen.generational.pressure = true;
    gen.verify_heap = true;
    const DigestOutcome out = RunForDigest(gen, slot);
    EXPECT_GT(out.fulls, 0u) << "slot " << slot;
    EXPECT_EQ(base.digest, out.digest) << "slot " << slot;
  }
}

}  // namespace
}  // namespace svagc
