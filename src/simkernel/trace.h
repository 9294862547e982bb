// Memory-access trace hook.
//
// The cache/DTLB simulators (src/memsim) observe the runtime's memory
// traffic through this interface; it lives in simkernel so the address
// space can emit events without depending on memsim. Tracing is opt-in and
// off by default — only the Table III harness and its tests enable it.
#pragma once

#include <cstdint>

namespace svagc::sim {

class MemTraceSink {
 public:
  virtual ~MemTraceSink() = default;

  // One data access of `size` bytes at virtual address `vaddr`.
  virtual void OnAccess(std::uint64_t vaddr, std::uint32_t size,
                        bool is_write) = 0;
};

}  // namespace svagc::sim
