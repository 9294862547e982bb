// Generational front end over SVAGC (ROADMAP item 4): a VGC-style
// zone-per-thread copying nursery feeding SVAGC's page-aligned old space,
// with SWAM-style pressure-driven full-GC triggering.
//
//   * Allocation — the collector implements rt::AllocFrontEnd: small
//     objects bump-allocate in per-thread zones of a shared young extent,
//     medium objects get their own page-aligned young runs, and objects of
//     at least `bypass_bytes` (or the heap's huge class) go straight to the
//     old space, page-aligned, exactly as before.
//
//   * Minor GC — triggered by zone/extent exhaustion. The remembered set
//     is maintained honestly through the rt::GcBarrier write barrier:
//     old→young stores append the slot address to per-thread sequential
//     store buffers, drained and deduplicated at minor-GC start. The
//     scavenger traces from roots + remembered set only (never the old
//     space) on the collector's own gang — a level-synchronized parallel
//     BFS like the full collector's mark — and ages survivors. Survivors
//     below the tenuring age stay young: page-aligned own-run survivors
//     age *in place* (their run is simply kept out of the rebuilt free
//     map — the SVAGC move-avoidance idea applied to the nursery), while
//     small zone-resident survivors are copied zone-to-zone into packed
//     runs carved from the just-died space. Older survivors (and small
//     stayers nothing can host — "premature tenuring") move to a chunk
//     carved off the old space, laid out by the heap's rule and moved by
//     per-worker ObjectMovers, so large tenurees are SwapVA'd, not copied,
//     and their swaps aggregate (paper Table I row 2).
//
//     Invariant the oracle test leans on: the remembered set is a
//     *superset* of the old→young edges at all times — entries are added
//     on every store and on tenuring, and removed only when a drain
//     observes the slot no longer points young.
//
//   * Full GC — before an inner cycle the nursery is *abandoned*, not
//     evacuated: the extent is walkable at all times (zone tails and free
//     runs carry fillers), so the inner ParallelLisp2/SVAGC cycle simply
//     marks and compacts the surviving young objects along with everything
//     else. No copy, no OOM hazard when old space is already full. The
//     PressureGovernor escalates minor→full on SWAM-style signals
//     (occupancy, occupancy slope, promotion rate, far-tier residency);
//     heap exhaustion still forces a full cycle through Jvm::New.
//
//   * Phase engine — BeginCycle/StepPhase delegate to the inner collector
//     (abandoning the nursery first; the inner cycle retires the TLABs), so
//     the fleet arbiter and the epoch TLB-flush machinery drive a
//     generational tenant unchanged, and the front end's own full GCs need
//     no heap preparation. Finished inner cycles are replayed into this
//     collector's own GcLog, and both collectors publish event totals into
//     the inner collector's metrics registry — the harness harvests the
//     outer collector only.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/move_object.h"
#include "core/pressure_governor.h"
#include "core/young_space.h"
#include "gc/parallel_lisp2.h"
#include "runtime/alloc_front_end.h"
#include "runtime/gc_barrier.h"

namespace svagc::core {

struct GenerationalConfig {
  YoungSpaceConfig young;
  // Target nursery extent; 0 = auto (young_fraction of the free heap at
  // attach time). A nonzero target is still capped so the old space keeps
  // room for tenure batches and bypass allocations.
  std::uint64_t young_bytes = 0;
  // Fraction of the free heap the auto-sized nursery claims. In-place
  // aging makes a big nursery cheap (stayers are never copied), and a
  // bigger nursery means proportionally fewer minor collections, so this
  // leans larger than classic copying-nursery ratios.
  double young_fraction = 0.65;
  // Objects at least this big never enter the nursery (nor does anything
  // in the heap's huge class).
  std::uint64_t bypass_bytes = 512ULL << 10;
  // Minor collections an object must survive before it is tenured. In-place
  // aging makes staying young nearly free for page-aligned objects, so the
  // default leans toward letting medium-lived objects die in the nursery.
  unsigned tenure_age = 6;
  // Scavenge gang width (the outer collector's workers; minor trace and the
  // evacuation batches run level-parallel on it). The runner mirrors the
  // full collector's gc_threads here.
  unsigned gang_workers = 1;
  // Evacuation config for the minor scavenge (SwapVA threshold etc.);
  // normally mirrors the old-space collector's move config.
  MoveObjectConfig move;
  // SWAM-style escalation; `pressure_enabled=false` keeps minor GCs but
  // never escalates (full GCs happen only on heap exhaustion).
  bool pressure_enabled = true;
  PressureConfig pressure;
  // Run the remembered-set superset oracle after every minor collection
  // (walks the whole heap; tests only).
  bool verify_remset = false;
};

// Per-minor-cycle statistics, exposed for tests and the bench.
struct MinorCycleStats {
  std::uint64_t traced_objects = 0;
  std::uint64_t survivors = 0;
  std::uint64_t stayed = 0;
  std::uint64_t tenured = 0;
  std::uint64_t premature_tenured = 0;
  std::uint64_t promoted_bytes = 0;
  std::uint64_t remset_drained = 0;
  std::uint64_t remset_live = 0;  // entries still pointing young after drain
};

class GenerationalCollector final : public gc::CollectorBase,
                                    public rt::GcBarrier,
                                    public rt::AllocFrontEnd {
 public:
  // `inner` runs the full collections (SvagcCollector or plain
  // ParallelLisp2); the front end owns it and shares its metrics registry.
  // Minor scavenges run on the outer gang of `config.gang_workers` workers;
  // full phases use the inner gang.
  GenerationalCollector(sim::Machine& machine, unsigned first_core,
                        std::unique_ptr<gc::ParallelLisp2> inner,
                        const GenerationalConfig& config);
  ~GenerationalCollector() override;

  const char* name() const override { return "GenerationalSVAGC"; }

  // --- stepwise engine (fleet-arbiter seam) -------------------------------
  // A full collection abandons the nursery, runs the inner cycle, and
  // mirrors it into this collector's log.
  void StepPhase() override;
  bool cycle_active() const override { return inner_->cycle_active(); }
  bool at_relocation_boundary() const override {
    return inner_->at_relocation_boundary();
  }

  // --- rt::AllocFrontEnd --------------------------------------------------
  rt::vaddr_t AllocateObject(rt::Jvm& jvm, std::uint64_t bytes,
                             unsigned logical_thread) override;

  // --- rt::GcBarrier (remembered-set write barrier) -----------------------
  rt::vaddr_t ReadRef(rt::Jvm& jvm, rt::vaddr_t obj, std::uint32_t slot,
                      unsigned logical_thread) override;
  void WriteRef(rt::Jvm& jvm, rt::vaddr_t obj, std::uint32_t slot,
                rt::vaddr_t value, unsigned logical_thread) override;
  rt::vaddr_t ReadRoot(rt::Jvm& jvm, rt::RootSet::Handle handle) override;
  void WriteRoot(rt::Jvm& jvm, rt::RootSet::Handle handle,
                 rt::vaddr_t value) override;
  rt::vaddr_t Resolve(rt::Jvm& jvm, rt::vaddr_t ref) override;
  void OnAlloc(rt::Jvm& jvm, rt::vaddr_t addr,
               unsigned logical_thread) override;
  void AtSafepoint(rt::Jvm& jvm, unsigned logical_thread) override;

  // Explicit minor collection (tests/benches). Returns false when the old
  // space could not host the tenure batch — the caller must run Collect().
  bool MinorCollect(rt::Jvm& jvm);

  // --- introspection ------------------------------------------------------
  const GenerationalConfig& config() const { return config_; }
  gc::ParallelLisp2& inner() { return *inner_; }
  const YoungSpace* young() const { return young_.get(); }
  PressureGovernor& governor() { return governor_; }

  std::uint64_t minor_collections() const { return minor_collections_; }
  std::uint64_t full_collections() const { return full_collections_; }
  std::uint64_t promoted_bytes() const { return promoted_bytes_; }
  std::uint64_t premature_tenures() const { return premature_tenures_; }
  const MinorCycleStats& last_minor() const { return last_minor_; }

  // The superset oracle: walks every old-space object and CHECKs that each
  // old→young reference slot is covered by the remembered set (drained
  // entries ∪ pending store buffers). Makes the TLABs parsable first (heap
  // walk) without closing them, so running it leaves later allocation
  // exactly where it would have been.
  void VerifyRememberedSetAgainstHeap(rt::Jvm& jvm);

 protected:
  void ArmCycle(rt::Jvm& jvm) override;

 private:
  struct Survivor {
    rt::vaddr_t addr = 0;
    std::uint64_t size = 0;
    std::uint32_t num_refs = 0;
    unsigned age = 0;
    bool tenure = false;
    // Page-aligned own-run stayer: ages where it sits, never copied.
    bool in_place = false;
  };

  static rt::vaddr_t SlotAddr(rt::vaddr_t obj, std::uint32_t slot) {
    return obj + rt::kHeaderBytes + 8ULL * slot;
  }

  bool in_young(rt::vaddr_t addr) const {
    return young_ != nullptr && young_->Contains(addr);
  }

  std::vector<rt::vaddr_t>& SsbFor(unsigned logical_thread);
  void DrainStoreBuffers();

  // Attaches a nursery extent when none exists and the heap can spare one.
  void EnsureYoung(rt::Jvm& jvm);
  // Nursery-side allocation; 0 on exhaustion.
  rt::vaddr_t YoungAllocate(rt::Jvm& jvm, std::uint64_t bytes,
                            unsigned logical_thread);

  // Full-GC prologue: hand the nursery to the inner cycle and clear every
  // young-side structure (remset, buffers, ages).
  void AbandonYoungForFullGc();
  // Replays the just-finished inner cycle into this collector's log and
  // runs the post-full bookkeeping.
  void MirrorFinishedInnerCycle();

  // Scavenge helpers (see .cc). TraceYoung runs the gang-parallel BFS and
  // returns the phase's critical-path cycles.
  double TraceYoung(rt::Jvm& jvm, MinorCycleStats* stats,
                    std::vector<Survivor>* out);
  bool Escalate(rt::Jvm& jvm, const MinorCycleStats& stats);

  GenerationalConfig config_;
  std::unique_ptr<gc::ParallelLisp2> inner_;
  std::unique_ptr<YoungSpace> young_;
  PressureGovernor governor_;

  // Remembered set: addresses of old-space reference slots that pointed
  // into the nursery when stored (superset; see file comment). Per-thread
  // sequential store buffers feed it at drain time.
  std::unordered_set<rt::vaddr_t> remset_;
  std::vector<std::vector<rt::vaddr_t>> ssb_;

  // Survival counts keyed by the object's current young address; rebuilt
  // by every scavenge, dropped wholesale on full GC.
  std::unordered_map<rt::vaddr_t, unsigned> ages_;

  std::uint64_t minor_collections_ = 0;
  std::uint64_t full_collections_ = 0;
  std::uint64_t promoted_bytes_ = 0;
  std::uint64_t premature_tenures_ = 0;
  MinorCycleStats last_minor_;

  // Inner-log cycles already replayed into this collector's log.
  std::size_t inner_cycles_seen_ = 0;

  // Reentrancy guard: allocations issued while a collection is running
  // (there are none today, but a declined fallback is safer than a hang).
  bool collecting_ = false;
  // Set when a minor collection failed to make room for even a small
  // allocation — the nursery is starved (live young set ≈ extent) and
  // further minors would thrash. Cleared by the next full collection.
  bool young_starved_ = false;
};

}  // namespace svagc::core
