// GC barrier interface: the seam through which a concurrent collector
// intercepts mutator heap accesses. The STW collectors install no barrier
// and every Jvm accessor falls through to the raw address-space operation at
// zero cost; a concurrent collector (src/core/concurrent_svagc_collector)
// implements this interface and is wired in by the tenant factory, giving
// it:
//
//   - a SATB write barrier (WriteRef enqueues the overwritten value while
//     marking is concurrent),
//   - a Brooks-style read barrier (ReadRef/ReadRoot/Resolve route accesses
//     through the forwarding table while a cycle is mid-evacuation),
//   - allocation hooks (allocate-black during marking), and
//   - safepoint polls (mutators yield bounded GC work quanta).
//
// The barrier object is owned by the collector; Jvm holds a non-owning
// pointer that set_collector() clears (the oracle swaps collectors under a
// live Jvm, and a stale barrier pointer must never survive that).
#pragma once

#include "runtime/object.h"
#include "runtime/roots.h"

namespace svagc::rt {

class Jvm;

class GcBarrier {
 public:
  virtual ~GcBarrier() = default;

  // Reads reference slot `slot` of the object named by `obj` (an address in
  // the mutator's current naming of the heap). Returns the reference in the
  // same naming.
  virtual vaddr_t ReadRef(Jvm& jvm, vaddr_t obj, std::uint32_t slot,
                          unsigned logical_thread) = 0;

  // Stores `value` (mutator naming) into reference slot `slot` of `obj`.
  virtual void WriteRef(Jvm& jvm, vaddr_t obj, std::uint32_t slot,
                        vaddr_t value, unsigned logical_thread) = 0;

  // Root accesses, same naming contract as ReadRef/WriteRef.
  virtual vaddr_t ReadRoot(Jvm& jvm, RootSet::Handle handle) = 0;
  virtual void WriteRoot(Jvm& jvm, RootSet::Handle handle, vaddr_t value) = 0;

  // Translates a mutator-named reference to the address where the object's
  // bytes currently live (the Brooks indirection). Identity when the object
  // has not moved yet.
  virtual vaddr_t Resolve(Jvm& jvm, vaddr_t ref) = 0;

  // Called by Jvm::New after the header is initialized.
  virtual void OnAlloc(Jvm& jvm, vaddr_t addr, unsigned logical_thread) = 0;

  // Mutator safepoint poll: the collector may run bounded concurrent work
  // quanta here (never a relocation window).
  virtual void AtSafepoint(Jvm& jvm, unsigned logical_thread) = 0;
};

}  // namespace svagc::rt
