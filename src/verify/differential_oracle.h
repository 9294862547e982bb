// Differential oracle: SwapVA compaction vs. the memmove baseline.
//
// The oracle builds one JVM, runs a workload until the heap has real
// structure, snapshots it (runtime/heap_snapshot), then performs the same
// forced GC cycle twice from that snapshot — once with SvagcCollector's
// SwapVA moves, once with the identical collector in memmove-only mode —
// and compares semantic digests of the two post-GC heaps: object stream,
// reference graphs, payload contents, filler placement, roots, and top.
//
// The comparison is deliberately *semantic*, not byte-for-byte: SwapVA moves
// whole pages, so the dead interior of a large object's tail page carries
// the source page's old garbage, while memmove copies only the object's
// bytes. Both heaps are correct; their dead bytes differ. Everything the
// mutator can observe — sizes, types, references, payload words, root
// targets, layout — must match exactly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gc/plan_optimizer.h"
#include "runtime/object.h"
#include "simkernel/translation.h"
#include "verify/invariant_registry.h"

namespace svagc::sim {
class FaultHook;
}

namespace svagc::rt {
class Jvm;
}

namespace svagc::verify {

struct DigestObject {
  rt::vaddr_t addr = 0;
  std::uint64_t size = 0;
  std::uint32_t type_id = 0;
  std::uint32_t num_refs = 0;
  std::vector<rt::vaddr_t> refs;
  std::uint64_t payload_hash = 0;  // FNV-1a over the payload's words

  bool operator==(const DigestObject&) const = default;
};

struct HeapDigest {
  // False when the heap does not even parse (bad filler/size words); the
  // walk is defensive, never trusting the heap it inspects.
  bool valid = true;
  std::string error;
  rt::vaddr_t top = 0;
  std::vector<DigestObject> objects;
  // (address, gap bytes) of every filler, in address order.
  std::vector<std::pair<rt::vaddr_t, std::uint64_t>> fillers;
  std::vector<rt::vaddr_t> roots;  // slot order, including null slots
};

// Walks [base, top) and digests every object and filler. Safe on corrupt
// heaps: returns valid=false instead of looping or crashing.
HeapDigest DigestHeap(rt::Jvm& jvm);

// Empty string when equal; otherwise a description of the first divergence.
std::string CompareDigests(const HeapDigest& swap_arm,
                           const HeapDigest& copy_arm);

struct OracleConfig {
  std::string workload = "lrucache";
  double heap_factor = 1.6;
  unsigned gc_threads = 4;
  unsigned machine_cores = 8;
  // Iterations before the snapshot, so the heap holds a grown object graph
  // (including garbage for the compared cycle to reclaim).
  unsigned warmup_iterations = 6;
  std::uint64_t swap_threshold_pages = 10;

  // Run both arms under the mutator-concurrent collector
  // (core::ConcurrentSvagcCollector) instead of the STW SvagcCollector. The
  // compared cycle still runs snapshot-to-snapshot inside Collect(), so the
  // digests isolate the incremental evacuation machinery (per-window
  // flushes, single pinned mover, fwd-map adjust) against its own memmove
  // arm. Incompatible with drop_move.
  bool concurrent = false;

  // 2 MiB alignment class, forwarded to HeapConfig::huge_threshold_pages
  // (and enabling the kernel's PMD swapping in the swap arm). 0 = disabled.
  std::uint64_t huge_threshold_pages = 0;

  // Translation backend for both arms' machines. The conformance sweep runs
  // the oracle once per backend and compares swap-arm digests across runs.
  sim::TranslationBackend translation_backend = sim::TranslationBackend::kRadix;

  // Compaction-plan optimizer, applied to BOTH arms (the compared cycle's
  // layout must be identical across arms; coalescing/elision change where
  // objects land, not whether the two movers agree). When any knob is on,
  // the per-object move-bytes prediction is invalid — runs dispatch at run
  // granularity — and prediction_valid stays false.
  gc::PlanOptimizerConfig plan_optimizer;

  // Salting: adds `large_object_salt` rooted large arrays behind an
  // *unrooted* large spacer, guaranteeing the compared cycle performs
  // genuinely displaced SwapVA moves even for workloads whose own objects
  // are small. 0 = no salting (small-only shape).
  unsigned large_object_salt = 0;
  std::uint64_t salt_object_bytes = 24 * sim::kPageSize;
  // Spacer size; 0 = same as salt_object_bytes. A spacer smaller than the
  // salt objects makes the slide distance shorter than each object's extent,
  // forcing SwapVA down the *overlapping* (rotation) path.
  std::uint64_t salt_spacer_bytes = 0;

  // Intentional-bug toggle: the swap arm silently drops the Nth displaced
  // move (counting across all workers). The oracle must report a mismatch —
  // this is the self-test proving the digest has teeth.
  bool drop_move = false;
  std::uint64_t drop_move_index = 0;

  // Fault hook installed on the kernel for the swap arm's compared cycle
  // only (detached for warmup and the memmove arm), so fault-injection tests
  // can prove the recovery paths converge to the very same heap the clean
  // memmove arm produces.
  sim::FaultHook* swap_arm_fault_hook = nullptr;

  // Near-tier residency as a fraction of the heap's pages. Below 1.0 the
  // oracle attaches a far tier sized to that fraction before warmup, so
  // BOTH arms run overcommitted: the swap arm relinks swapped entries in
  // place while the memmove arm faults them through the near tier — and the
  // digests must still match exactly (residency is never semantic). 1.0 =
  // no far tier (the historical shape).
  double far_residency = 1.0;
};

struct OracleResult {
  bool match = false;
  std::string divergence;  // empty iff match

  // The swap arm's post-GC digest, retained so cross-backend sweeps can
  // CompareDigests between oracle runs.
  HeapDigest swap_digest;

  // From the swap arm's digest/cycle, for assertions about coverage. The
  // byte totals are the swap arm's registry counters ("gc.bytes_swapped" /
  // "gc.bytes_copied").
  std::uint64_t objects = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t swapped_bytes = 0;
  std::uint64_t memmoved_bytes = 0;
  std::uint64_t moves_dropped = 0;

  // Independent prediction of the same totals from the pre/post heap
  // digests alone: BFS liveness over the pre-GC object graph, the sliding
  // order-preservation pairing (i-th live pre object -> i-th post object),
  // and Algorithm 3's swap-vs-copy dispatch test replayed per displaced
  // object. Valid only when both digests parsed and paired cleanly.
  bool prediction_valid = false;
  std::uint64_t predicted_swapped_bytes = 0;
  std::uint64_t predicted_memmoved_bytes = 0;

  InvariantReport invariants_swap;
  InvariantReport invariants_copy;
};

OracleResult RunDifferentialOracle(const OracleConfig& config);

}  // namespace svagc::verify
