#include "runtime/jvm.h"

namespace svagc::rt {

Jvm::Jvm(sim::Machine& machine, sim::PhysicalMemory& phys, sim::Kernel& kernel,
         const JvmConfig& config)
    : machine_(machine),
      kernel_(kernel),
      as_(machine, phys),
      heap_(as_, config.heap),
      config_(config) {
  SVAGC_CHECK(config.logical_threads >= 1);
  SVAGC_CHECK(IsAligned(config.tlab_bytes, sim::kPageSize));
  mutators_.reserve(config.logical_threads);
  for (unsigned i = 0; i < config.logical_threads; ++i) {
    mutators_.push_back(
        std::make_unique<MutatorContext>(machine, config.mutator_core));
  }
}

Jvm::~Jvm() = default;

vaddr_t Jvm::TryAllocate(std::uint64_t bytes, MutatorContext& mutator) {
  // Shared-space path for objects that would dominate a TLAB.
  if (bytes > config_.tlab_bytes / 2) return heap_.AllocateRaw(bytes);

  if (vaddr_t addr = mutator.tlab.Allocate(heap_, bytes); addr != 0) {
    return addr;
  }
  // Refill: retire the exhausted TLAB and carve a fresh chunk.
  mutator.tlab.Retire(heap_);
  const vaddr_t chunk = heap_.AllocateTlabChunk(config_.tlab_bytes);
  if (chunk == 0) return heap_.AllocateRaw(bytes);  // heap nearly full
  mutator.tlab.Assign(chunk, config_.tlab_bytes);
  return mutator.tlab.Allocate(heap_, bytes);
}

vaddr_t Jvm::New(std::uint32_t type_id, std::uint32_t num_refs,
                 std::uint64_t data_bytes, unsigned logical_thread) {
  const std::uint64_t bytes = ObjectBytes(num_refs, data_bytes);
  MutatorContext& mutator = this->mutator(logical_thread);

  vaddr_t addr = 0;
  if (front_end_ != nullptr) {
    addr = front_end_->AllocateObject(*this, bytes, logical_thread);
  }
  if (addr == 0) addr = TryAllocate(bytes, mutator);
  if (addr == 0) {
    // Allocation failure: stop the world and run a full collection (the
    // collector makes the heap parsable itself).
    SVAGC_CHECK(collector_ != nullptr);
    collector_->Collect(*this);
    ++gc_count_;
    addr = TryAllocate(bytes, mutator);
    SVAGC_CHECK(addr != 0);  // genuine OOM: harness sized the heap wrong
  }

  // Zero the whole object (Java semantics), then write the header. The
  // zeroing charge models allocation-time initialization bandwidth.
  as_.ZeroBytes(mutator.cpu, addr, bytes);
  ObjectView view(as_, addr);
  view.set_size(bytes);
  view.set_type_and_refs(type_id, num_refs);
  view.set_forwarding(0);
  heap_.NoteAllocation(bytes, heap_.IsLargeObject(bytes));
  if (barrier_ != nullptr) barrier_->OnAlloc(*this, addr, logical_thread);
  return addr;
}

double Jvm::MutatorCycles() const {
  double total = 0;
  for (const auto& mutator : mutators_) total += mutator->cpu.account.total();
  return total;
}

void Jvm::RetireAllTlabs() {
  for (auto& mutator : mutators_) mutator->tlab.Retire(heap_);
}

void Jvm::MakeTlabsParsable() {
  for (auto& mutator : mutators_) mutator->tlab.MakeParsable(heap_);
}

}  // namespace svagc::rt
