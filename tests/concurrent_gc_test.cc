// The mutator-concurrent collector's proof obligations (ROADMAP item 1):
//
//   1. Interleaving-schedule sweep: >= 200 seeded schedules x 3 heap shapes,
//      each schedule executed three ways — concurrent arm (GC quanta
//      interleaved with mutator ops), fully-STW reference arm (identical op
//      stream, whole cycles at the op indices the concurrent arm chose), and
//      a shadow-graph mirror. All three must produce the identical canonical
//      reachable-graph digest, and every reference served by the read
//      barrier must resolve to bytes matching the shadow at every step (no
//      stale pre-forwarding address ever escapes).
//   2. SATB precision: at each remark the harness observes, the mark set
//      equals shadow-reachable-at-BeginCycle plus allocated-black — exactly.
//   3. Pause bounds: every evacuation [STW] window fits the quantum budget
//      plus one indivisible work item; the flip is O(1); remark cost scales
//      with the SATB residue, not with the live set.
//   4. Stepwise-engine regression: the STW collectors (ParallelLisp2,
//      ShenandoahLike) produce bit-identical layouts and cycle records
//      whether driven by Collect() or stepped quantum by quantum.
//   5. The fleet arbiter consumes the concurrent collector unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_runner.h"
#include "gc/parallel_lisp2.h"
#include "gc/shenandoah_gc.h"
#include "runtime/heap_snapshot.h"
#include "tests/schedule_driver.h"
#include "tests/test_util.h"
#include "verify/differential_oracle.h"

namespace svagc {
namespace {

using svagc::testing::GenerateOps;
using svagc::testing::ScheduleDriver;
using svagc::testing::ScheduleRunResult;
using svagc::testing::ScheduleShape;
using svagc::testing::SimBundle;

// --- heap shapes -------------------------------------------------------------

ScheduleShape SmallDense() {
  ScheduleShape shape;
  shape.name = "small-dense";
  shape.roots = 8;
  shape.ops = 400;
  shape.max_refs = 3;
  shape.max_data_words = 6;
  shape.walk_depth = 3;
  shape.heap_bytes = 16ULL << 20;
  return shape;
}

ScheduleShape LargeMix() {
  ScheduleShape shape;
  shape.name = "large-mix";
  shape.roots = 6;
  shape.ops = 300;
  shape.max_refs = 2;
  shape.max_data_words = 4;
  shape.walk_depth = 3;
  shape.large_every = 6;  // every 6th allocation crosses the SwapVA threshold
  shape.heap_bytes = 64ULL << 20;
  return shape;
}

ScheduleShape DeepChain() {
  ScheduleShape shape;
  shape.name = "deep-chain";
  shape.roots = 4;
  shape.ops = 400;
  shape.max_refs = 2;
  shape.max_data_words = 3;
  shape.walk_depth = 4;
  shape.heap_bytes = 16ULL << 20;
  return shape;
}

std::vector<ScheduleShape> AllShapes() {
  return {SmallDense(), LargeMix(), DeepChain()};
}

// Runs one schedule through both arms and the shadow; returns the concurrent
// arm's result (the driver already asserted heap == shadow internally for
// each arm). `satb_checks_total` accumulates across the sweep — any single
// schedule may finish a cycle inside an allocation-failure Collect and skip
// its check, but the sweep as a whole must exercise the SATB identity.
void RunSchedule(const ScheduleShape& shape, std::uint64_t seed,
                 std::uint64_t* satb_checks_total,
                 std::uint64_t* cycles_total) {
  const auto ops = GenerateOps(shape, seed);

  ScheduleDriver concurrent_arm(shape);
  const ScheduleRunResult a = concurrent_arm.RunConcurrent(ops, seed);

  ScheduleDriver stw_arm(shape);
  const ScheduleRunResult b = stw_arm.RunStwReplay(ops, a.begin_ops);

  EXPECT_TRUE(a.heap_verified) << shape.name << " seed " << seed;
  EXPECT_TRUE(b.heap_verified) << shape.name << " seed " << seed;
  // Three-way identity: concurrent heap == shadow == STW reference heap.
  EXPECT_EQ(a.heap_digest, a.shadow_digest) << shape.name << " seed " << seed;
  EXPECT_EQ(a.heap_digest, b.heap_digest) << shape.name << " seed " << seed;
  EXPECT_EQ(a.shadow_digest, b.shadow_digest)
      << shape.name << " seed " << seed;
  EXPECT_GT(a.barrier_reads_checked, 0u);
  *satb_checks_total += a.satb_checks;
  *cycles_total += a.cycles_started;
}

// --- 1+2: the interleaving-schedule sweep ------------------------------------

// 70 seeds x 3 shapes = 210 schedules (>= the 200 the acceptance gate asks
// for), every one with continuous read-barrier staleness checks and the
// three-way digest identity.
TEST(ConcurrentSchedule, DigestIdentityAcrossSchedules) {
  constexpr std::uint64_t kSeeds = 70;
  std::uint64_t satb_checks = 0;
  std::uint64_t cycles = 0;
  for (const ScheduleShape& shape : AllShapes()) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      RunSchedule(shape, seed, &satb_checks, &cycles);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The sweep must have actually exercised concurrency: cycles started by
  // the scheduler (not just allocation failure), and the SATB mark-set
  // identity checked at driver-observed remarks.
  EXPECT_GT(cycles, 100u);
  EXPECT_GT(satb_checks, 50u);
}

// A focused single-schedule variant that pins the auxiliary harness
// counters, so a regression in the driver itself (e.g. checks silently
// stopping) fails loudly rather than hollowing out the sweep.
TEST(ConcurrentSchedule, HarnessExercisesBarrierAndSatb) {
  ScheduleShape shape = SmallDense();
  shape.ops = 800;
  shape.begin_prob = 0.15;
  core::ConcurrentSvagcConfig config;
  // A small quantum stretches the marking phase across many mutator ops, so
  // barriered overwrites land while SATB is on.
  config.quantum_cycles = 30000;
  const auto ops = GenerateOps(shape, 7);
  ScheduleDriver driver(shape, config);
  const ScheduleRunResult result = driver.RunConcurrent(ops, 7);
  EXPECT_GT(result.cycles_started, 3u);
  EXPECT_GT(result.satb_checks, 0u);
  EXPECT_GT(result.barrier_reads_checked, 500u);
  // The barrier actually saw traffic: SATB entries were enqueued and the
  // collector did real concurrent (non-STW) work.
  EXPECT_GT(result.satb_enqueued_total, 0u);
  EXPECT_GT(
      driver.collector().metrics().CounterValue("gc.concurrent_cycles"), 0u);
}

// --- 3: pause bounds ---------------------------------------------------------

// Every evacuation [STW] window stops within one indivisible work item of
// the quantum budget, plus the window's bounded prologue/epilogue (pin, one
// TLB shootdown round, unpin) — none of which scale with heap size.
TEST(ConcurrentPause, EvacWindowsRespectQuantumBudget) {
  ScheduleShape shape = LargeMix();
  shape.ops = 400;
  shape.begin_prob = 0.12;
  core::ConcurrentSvagcConfig config;
  config.quantum_cycles = 60000;  // small budget => many windows
  const auto ops = GenerateOps(shape, 11);
  ScheduleDriver driver(shape, config);
  driver.RunConcurrent(ops, 11);

  const auto& windows = driver.collector().stw_windows();
  const double slack = 2 * driver.collector().max_single_step_cycles();
  constexpr double kWindowOverhead = 50000;  // pin + shootdown + unpin, O(1)
  unsigned evac_windows = 0;
  for (const core::StwWindow& w : windows) {
    if (w.phase != core::ConcPhase::kEvacuate) continue;
    ++evac_windows;
    EXPECT_LE(w.cycles, config.quantum_cycles + slack + kWindowOverhead)
        << "evacuation window " << evac_windows << " blew the budget";
  }
  // Non-vacuous: the schedule really did split evacuation across windows.
  EXPECT_GE(evac_windows, 2u);
}

// The flip publishes a top (or one filler) and mover statistics: O(1),
// orders of magnitude below any quantum.
TEST(ConcurrentPause, FlipWindowIsConstant) {
  ScheduleShape shape = SmallDense();
  const auto ops = GenerateOps(shape, 3);
  ScheduleDriver driver(shape);
  driver.RunConcurrent(ops, 3);
  unsigned flips = 0;
  for (const core::StwWindow& w : driver.collector().stw_windows()) {
    if (w.phase != core::ConcPhase::kFinalize) continue;
    ++flips;
    EXPECT_LT(w.cycles, 5000.0);
  }
  EXPECT_GE(flips, 1u);
}

// Remark-cost rig: a root chain of `chain` objects, marking driven to
// completion concurrently, then `writes` barriered stores (each enqueues the
// overwritten value into the SATB buffer), then the remark window. With the
// buffer capacity raised above `writes`, nothing hands off early: the whole
// residue drains at remark.
double RemarkCycles(unsigned chain, unsigned writes) {
  SimBundle sim(4);
  rt::JvmConfig jvm_config;
  jvm_config.heap.capacity = 32ULL << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, jvm_config);
  core::ConcurrentSvagcConfig config;
  config.satb_buffer_capacity = 1u << 20;
  auto owned = std::make_unique<core::ConcurrentSvagcCollector>(
      sim.machine, /*first_core=*/0, config);
  core::ConcurrentSvagcCollector* collector = owned.get();
  jvm.set_collector(std::move(owned));
  jvm.set_gc_barrier(collector);

  std::vector<rt::vaddr_t> nodes;
  for (unsigned i = 0; i < chain; ++i) {
    nodes.push_back(jvm.New(9, /*num_refs=*/1, /*data_bytes=*/16));
  }
  for (unsigned i = 0; i + 1 < chain; ++i) {
    jvm.View(nodes[i]).set_ref(0, nodes[i + 1]);
  }
  jvm.roots().Add(nodes[0]);

  collector->BeginCycle(jvm);
  // Drive concurrent marking to completion; the phase advances to kRemark
  // only once the stack and handoffs are drained, and remark itself runs on
  // the *next* quantum — SATB is still on in the gap.
  while (collector->phase() == core::ConcPhase::kMark) collector->StepPhase();
  EXPECT_EQ(collector->phase(), core::ConcPhase::kRemark);
  // Barriered stores: every write enqueues the (already-marked) overwritten
  // target, so remark pays the per-entry drain charge and nothing else.
  for (unsigned w = 0; w < writes; ++w) {
    const unsigned i = w % (chain - 1);
    jvm.WriteRef(nodes[i], 0, nodes[i + 1]);
  }
  collector->StepPhase();  // the remark window
  collector->FinishCycle();
  EXPECT_EQ(collector->satb_enqueued(), writes);
  EXPECT_EQ(collector->remark_drained(), writes);

  for (const core::StwWindow& w : collector->stw_windows()) {
    if (w.phase == core::ConcPhase::kRemark) return w.cycles;
  }
  ADD_FAILURE() << "no remark window recorded";
  return 0;
}

// Remark is O(SATB residue), not O(live set): a 10x larger heap moves the
// remark window by noise only, while 30x more SATB entries dominate it.
TEST(ConcurrentPause, RemarkScalesWithSatbNotHeap) {
  const double small_heap = RemarkCycles(/*chain=*/200, /*writes=*/40);
  const double big_heap = RemarkCycles(/*chain=*/2000, /*writes=*/40);
  const double big_satb = RemarkCycles(/*chain=*/2000, /*writes=*/1200);
  ASSERT_GT(small_heap, 0.0);
  // Heap-size independence: same SATB residue, 10x the live objects.
  EXPECT_LT(big_heap, 2.0 * small_heap);
  // SATB dependence: same heap, 30x the residue.
  EXPECT_GT(big_satb, 2.0 * big_heap);
}

// --- 4: PhaseEngine regression ----------------------------------------------

// The STW collectors must be indistinguishable whether a caller runs
// Collect() or steps the engine — same layout (byte-level digest), same
// per-phase cycle record, bit for bit. This is the regression gate for
// CollectorBase's stepwise API: the fleet consumes exactly this stepped
// interface.
// Each arm gets its own cold machine: modeled costs depend on TLB/cache
// warmth, so the arms must be separate executions of one construction, not
// a snapshot/restore on shared warm state.
template <typename Collector>
void RunOneCycle(bool stepped, verify::HeapDigest* digest,
                 rt::GcCycleRecord* record) {
  SimBundle sim(8);
  rt::JvmConfig jvm_config;
  jvm_config.heap.capacity = 32ULL << 20;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, jvm_config);
  auto owned =
      std::make_unique<Collector>(sim.machine, /*gc_threads=*/4,
                                  /*first_core=*/0);
  Collector* collector = owned.get();
  jvm.set_collector(std::move(owned));

  // A graph with survivors and garbage so the cycle actually moves objects:
  // every third object joins a rooted chain, the rest die.
  rt::vaddr_t prev = 0;
  for (unsigned i = 0; i < 300; ++i) {
    const rt::vaddr_t obj = jvm.New(5, 2, 8 * (1 + i % 7));
    jvm.View(obj).set_data_word(0, 0xABCD0000 + i);
    if (i % 3 == 0) {
      if (prev == 0) {
        jvm.roots().Add(obj);
      } else {
        jvm.View(prev).set_ref(0, obj);
      }
      prev = obj;
    }
  }

  if (stepped) {
    collector->BeginCycle(jvm);
    while (collector->cycle_active()) collector->StepPhase();
  } else {
    collector->Collect(jvm);
  }
  *digest = verify::DigestHeap(jvm);
  ASSERT_FALSE(collector->log().cycles.empty());
  *record = collector->log().cycles.back();
}

template <typename Collector>
void ExpectSteppedMatchesMonolithic() {
  verify::HeapDigest monolithic, stepped;
  rt::GcCycleRecord mono_rec, step_rec;
  RunOneCycle<Collector>(false, &monolithic, &mono_rec);
  RunOneCycle<Collector>(true, &stepped, &step_rec);
  ASSERT_TRUE(monolithic.valid) << monolithic.error;
  ASSERT_TRUE(stepped.valid) << stepped.error;

  EXPECT_EQ(verify::CompareDigests(monolithic, stepped), "");
  EXPECT_EQ(mono_rec.mark, step_rec.mark);
  EXPECT_EQ(mono_rec.forward, step_rec.forward);
  EXPECT_EQ(mono_rec.adjust, step_rec.adjust);
  EXPECT_EQ(mono_rec.compact, step_rec.compact);
  EXPECT_EQ(mono_rec.other, step_rec.other);
}

TEST(PhaseEngineRegression, ParallelLisp2SteppedMatchesMonolithic) {
  ExpectSteppedMatchesMonolithic<gc::ParallelLisp2>();
}

TEST(PhaseEngineRegression, ShenandoahSteppedMatchesMonolithic) {
  ExpectSteppedMatchesMonolithic<gc::ShenandoahLike>();
}

// --- 5: the fleet arbiter consumes the concurrent collector unchanged --------

TEST(ConcurrentFleet, RunsUnderArbiter) {
  fleet::FleetConfig config;
  config.run.workload = "lrucache";
  config.run.collector = workloads::CollectorKind::kConcurrentSvagc;
  config.run.gc_threads = 4;
  config.run.iterations = 8;
  config.tenants = 4;
  config.arbiter = fleet::ArbiterBatch();
  config.digest_heaps = true;
  const fleet::FleetResult result = fleet::RunFleet(config);

  ASSERT_EQ(result.tenants.size(), 4u);
  ASSERT_GT(result.epochs, 0u);  // cycles flowed through the arbiter
  for (const auto& tenant : result.tenants) {
    EXPECT_EQ(tenant.collector_name, "ConcurrentSVAGC");
    EXPECT_GT(tenant.gc_count, 0u);
    EXPECT_NE(tenant.heap_digest, 0u);  // end-of-run heap parsed + digested
  }
  // Determinism through the arbiter: a second identical fleet converges to
  // the same per-tenant heaps.
  const fleet::FleetResult again = fleet::RunFleet(config);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(result.tenants[i].heap_digest, again.tenants[i].heap_digest);
  }
}

// --- soak: heavier sweep, same invariants (ctest target `concurrent_soak`) ---

TEST(ConcurrentSoak, ExtendedScheduleSweep) {
  // SVAGC_SOAK_SCALE multiplies the seed count (nightly CI runs 10x).
  const char* scale_env = std::getenv("SVAGC_SOAK_SCALE");
  const std::uint64_t scale =
      scale_env != nullptr && scale_env[0] != '\0'
          ? std::strtoull(scale_env, nullptr, 10)
          : 1;
  const std::uint64_t kSeeds = 40 * std::max<std::uint64_t>(1, scale);
  std::uint64_t satb_checks = 0;
  std::uint64_t cycles = 0;
  for (ScheduleShape shape : AllShapes()) {
    shape.ops *= 3;  // longer mutation histories, more cycles per schedule
    shape.begin_prob = 0.12;
    for (std::uint64_t seed = 1000; seed < 1000 + kSeeds; ++seed) {
      RunSchedule(shape, seed, &satb_checks, &cycles);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(cycles, 200u);
  EXPECT_GT(satb_checks, 50u);
}

}  // namespace
}  // namespace svagc
