// The managed-runtime shell ("a JVM"): address space + heap + roots +
// mutator contexts + a pluggable collector, standing in for OpenJDK 15 with
// the Epsilon shell the paper extends.
//
// Threading model: GC phases use real parallel worker threads (the gang is
// owned by the collector). Mutators are *logical* — Table II's thread counts
// shape allocation demographics (one TLAB per logical thread), while the
// driving loop is sequential. This keeps workload behaviour faithful without
// a safepoint protocol, which the paper does not evaluate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/alloc_front_end.h"
#include "runtime/gc_barrier.h"
#include "runtime/heap.h"
#include "runtime/object.h"
#include "runtime/roots.h"
#include "runtime/tlab.h"
#include "simkernel/address_space.h"
#include "simkernel/machine.h"
#include "simkernel/swapva.h"
#include "support/stats.h"

namespace svagc::rt {

class Jvm;

// Per-GC-cycle pause breakdown, all in modeled cycles.
struct GcCycleRecord {
  double mark = 0;
  double forward = 0;
  double adjust = 0;
  double compact = 0;
  double other = 0;  // setup, pinning, up-front flushes, concurrent credit
  double Total() const { return mark + forward + adjust + compact + other; }
};

// Per-collector cycle log the benches read: pauses and phase times. Event
// totals (bytes moved, swap calls, ...) live in the collector's metrics
// registry (gc::CollectorBase::metrics(), DESIGN.md section 8).
struct GcLog {
  LatencyRecorder pauses;              // total STW pause per cycle
  std::vector<GcCycleRecord> cycles;   // per-cycle phase breakdown
  std::uint64_t collections = 0;

  void Record(const GcCycleRecord& rec) {
    cycles.push_back(rec);
    pauses.Record(static_cast<std::uint64_t>(rec.Total()));
    ++collections;
  }
  GcCycleRecord Sum() const {
    GcCycleRecord sum;
    for (const auto& rec : cycles) {
      sum.mark += rec.mark;
      sum.forward += rec.forward;
      sum.adjust += rec.adjust;
      sum.compact += rec.compact;
      sum.other += rec.other;
    }
    return sum;
  }
};

// Interface the runtime sees; concrete collectors live in src/gc and
// src/core (dependency inversion keeps runtime below gc in the layering).
class CollectorIface {
 public:
  virtual ~CollectorIface() = default;
  virtual const char* name() const = 0;
  // Stop-the-world full collection.
  virtual void Collect(Jvm& jvm) = 0;
  GcLog& log() { return log_; }
  const GcLog& log() const { return log_; }

 protected:
  GcLog log_;
};

// A logical mutator thread: its simulated CPU context + TLAB.
struct MutatorContext {
  MutatorContext(sim::Machine& machine, unsigned core_id)
      : cpu(machine, core_id) {}
  sim::CpuContext cpu;
  Tlab tlab;
};

struct JvmConfig {
  HeapConfig heap;
  std::uint64_t tlab_bytes = 64 * sim::kPageSize;  // 256 KiB, page multiple
  unsigned logical_threads = 1;
  unsigned mutator_core = 0;  // logical mutators share this simulated core
  unsigned gc_threads = 4;
  std::string name = "jvm";
};

class Jvm {
 public:
  Jvm(sim::Machine& machine, sim::PhysicalMemory& phys, sim::Kernel& kernel,
      const JvmConfig& config);
  ~Jvm();

  Jvm(const Jvm&) = delete;
  Jvm& operator=(const Jvm&) = delete;

  sim::Machine& machine() { return machine_; }
  sim::Kernel& kernel() { return kernel_; }
  sim::AddressSpace& address_space() { return as_; }
  Heap& heap() { return heap_; }
  RootSet& roots() { return roots_; }
  const JvmConfig& config() const { return config_; }

  void set_collector(std::unique_ptr<CollectorIface> collector) {
    // The outgoing collector owned any installed barrier or allocation
    // front end; never let a stale pointer outlive it (the differential
    // oracle swaps collectors under a live Jvm).
    barrier_ = nullptr;
    front_end_ = nullptr;
    collector_ = std::move(collector);
  }
  CollectorIface& collector() {
    SVAGC_CHECK(collector_ != nullptr);
    return *collector_;
  }
  bool has_collector() const { return collector_ != nullptr; }

  MutatorContext& mutator(unsigned logical_thread = 0) {
    return *mutators_[logical_thread % mutators_.size()];
  }
  unsigned num_mutators() const {
    return static_cast<unsigned>(mutators_.size());
  }

  // Allocates a managed object (like `new`): zeroed payload, header written.
  // Triggers a full collection on exhaustion; aborts on genuine OOM (the
  // harness sized the heap wrong — never a silent failure).
  vaddr_t New(std::uint32_t type_id, std::uint32_t num_refs,
              std::uint64_t data_bytes, unsigned logical_thread = 0);

  ObjectView View(vaddr_t addr) { return ObjectView(as_, addr); }

  // --- barrier-mediated accessors -----------------------------------------
  // With no barrier installed (every STW collector) these are the raw heap
  // operations; a concurrent collector interposes via set_gc_barrier.
  void set_gc_barrier(GcBarrier* barrier) { barrier_ = barrier; }
  GcBarrier* gc_barrier() const { return barrier_; }

  // Allocation front end (generational nursery); owned by the collector
  // like the barrier, cleared by set_collector.
  void set_alloc_front_end(AllocFrontEnd* front_end) {
    front_end_ = front_end;
  }
  AllocFrontEnd* alloc_front_end() const { return front_end_; }

  vaddr_t ReadRef(vaddr_t obj, std::uint32_t slot,
                  unsigned logical_thread = 0) {
    if (barrier_ != nullptr)
      return barrier_->ReadRef(*this, obj, slot, logical_thread);
    return View(obj).ref(slot);
  }
  void WriteRef(vaddr_t obj, std::uint32_t slot, vaddr_t value,
                unsigned logical_thread = 0) {
    if (barrier_ != nullptr) {
      barrier_->WriteRef(*this, obj, slot, value, logical_thread);
      return;
    }
    View(obj).set_ref(slot, value);
  }
  vaddr_t ReadRoot(RootSet::Handle handle) {
    if (barrier_ != nullptr) return barrier_->ReadRoot(*this, handle);
    return roots_.Get(handle);
  }
  void WriteRoot(RootSet::Handle handle, vaddr_t value) {
    if (barrier_ != nullptr) {
      barrier_->WriteRoot(*this, handle, value);
      return;
    }
    roots_.Set(handle, value);
  }
  // Where the bytes of the object named `ref` currently live.
  vaddr_t ResolveRef(vaddr_t ref) {
    if (barrier_ != nullptr) return barrier_->Resolve(*this, ref);
    return ref;
  }
  void SafepointPoll(unsigned logical_thread = 0) {
    if (barrier_ != nullptr) barrier_->AtSafepoint(*this, logical_thread);
  }

  // Mutator-side cycles across all logical threads (they share one core).
  double MutatorCycles() const;
  // GC pause cycles accumulated by the collector.
  double GcCycles() const {
    return collector_ == nullptr ? 0.0 : collector_->log().pauses.total();
  }

  std::uint64_t gc_count() const { return gc_count_; }
  // Collector-triggered collections (the front end bypasses New's
  // allocation-failure path, so it reports its own full GCs here).
  void NoteCollectorTriggeredGc() { ++gc_count_; }

  // Retires all TLABs (a GC prologue step: parsable-heap guarantee).
  void RetireAllTlabs();

 private:
  vaddr_t TryAllocate(std::uint64_t bytes, MutatorContext& mutator);

  sim::Machine& machine_;
  sim::Kernel& kernel_;
  sim::AddressSpace as_;
  Heap heap_;
  RootSet roots_;
  JvmConfig config_;
  std::vector<std::unique_ptr<MutatorContext>> mutators_;
  std::unique_ptr<CollectorIface> collector_;
  GcBarrier* barrier_ = nullptr;  // owned by the collector; see set_collector
  AllocFrontEnd* front_end_ = nullptr;  // likewise owned by the collector
  std::uint64_t gc_count_ = 0;
};

}  // namespace svagc::rt
