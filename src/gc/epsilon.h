// Epsilon: the no-op collector (JEP 318), the shell the paper's prototype
// extends. Its cycle reclaims nothing; exhaustion is a hard OOM.
#pragma once

#include "gc/collector.h"

namespace svagc::gc {

// An engine with no quanta: BeginCycle logs the empty cycle, which is over
// at once.
class Epsilon : public CollectorBase {
 public:
  explicit Epsilon(sim::Machine& machine)
      : CollectorBase(machine, /*gc_threads=*/1, /*first_core=*/0) {}

  const char* name() const override { return "Epsilon"; }

  void StepPhase() override { SVAGC_CHECK(false); }  // never active
  bool cycle_active() const override { return false; }
  bool at_relocation_boundary() const override { return false; }

 protected:
  void ArmCycle(rt::Jvm& jvm) override {
    (void)jvm;
    // Nothing is reclaimed; Jvm::New will fail its post-GC retry and abort
    // with a genuine OOM, matching Epsilon semantics.
    log_.Record(rt::GcCycleRecord{});
  }
};

}  // namespace svagc::gc
