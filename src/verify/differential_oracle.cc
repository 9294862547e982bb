#include "verify/differential_oracle.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>

#include "core/concurrent_svagc_collector.h"
#include "core/svagc_collector.h"
#include "runtime/heap_snapshot.h"
#include "runtime/jvm.h"
#include "support/align.h"
#include "support/table.h"
#include "workloads/workload.h"

namespace svagc::verify {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

// FNV-1a over [begin, end) of the virtual address space, page chunk by page
// chunk through the raw (uncosted) translation path.
std::uint64_t HashRange(sim::AddressSpace& as, rt::vaddr_t begin,
                        rt::vaddr_t end) {
  std::uint64_t hash = kFnvOffset;
  rt::vaddr_t cursor = begin;
  while (cursor < end) {
    const rt::vaddr_t page_end =
        (cursor & ~(sim::kPageSize - 1)) + sim::kPageSize;
    const std::uint64_t chunk = std::min<std::uint64_t>(page_end, end) - cursor;
    const std::byte* bytes = as.RawPtr(cursor);
    for (std::uint64_t i = 0; i < chunk; ++i) {
      hash ^= static_cast<std::uint64_t>(bytes[i]);
      hash *= kFnvPrime;
    }
    cursor += chunk;
  }
  return hash;
}

// The intentional-bug arm: an SvagcCollector that silently drops the Nth
// displaced move. Exercises the oracle's ability to notice a lost move.
class DropMoveCollector : public core::SvagcCollector {
 public:
  DropMoveCollector(sim::Machine& machine, unsigned gc_threads,
                    unsigned first_core, const core::SvagcConfig& config,
                    std::uint64_t drop_index)
      : core::SvagcCollector(machine, gc_threads, first_core, config),
        drop_index_(drop_index) {}

  std::uint64_t moves_dropped() const {
    return moves_dropped_.load(std::memory_order_relaxed);
  }

 protected:
  void MoveObject(rt::Jvm& jvm, sim::CpuContext& ctx, unsigned worker,
                  const gc::Move& move) override {
    if (move.src != move.dst &&
        displaced_moves_.fetch_add(1, std::memory_order_relaxed) ==
            drop_index_) {
      moves_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // the bug: forwarding promised a move that never happens
    }
    core::SvagcCollector::MoveObject(jvm, ctx, worker, move);
  }

 private:
  const std::uint64_t drop_index_;
  std::atomic<std::uint64_t> displaced_moves_{0};
  std::atomic<std::uint64_t> moves_dropped_{0};
};

std::unique_ptr<rt::CollectorIface> MakeArmCollector(
    const OracleConfig& config, sim::Machine& machine, bool use_swapva) {
  if (config.concurrent) {
    SVAGC_CHECK(!config.drop_move);  // drop_move is an STW-arm self-test
    core::ConcurrentSvagcConfig concurrent;
    concurrent.move.threshold_pages = config.swap_threshold_pages;
    concurrent.move.use_swapva = use_swapva;
    concurrent.move.pmd_swapping = config.huge_threshold_pages != 0;
    return std::make_unique<core::ConcurrentSvagcCollector>(
        machine, /*first_core=*/0, concurrent);
  }
  core::SvagcConfig svagc;
  svagc.move.threshold_pages = config.swap_threshold_pages;
  svagc.move.use_swapva = use_swapva;
  svagc.move.pmd_swapping = config.huge_threshold_pages != 0;
  std::unique_ptr<core::SvagcCollector> collector;
  if (use_swapva && config.drop_move) {
    collector = std::make_unique<DropMoveCollector>(machine, config.gc_threads,
                                                    /*first_core=*/0, svagc,
                                                    config.drop_move_index);
  } else {
    collector = std::make_unique<core::SvagcCollector>(
        machine, config.gc_threads, /*first_core=*/0, svagc);
  }
  // Both arms get the same optimizer config, so the compared cycle computes
  // the same layout and the digests compare move *execution*, not planning.
  collector->set_plan_optimizer(config.plan_optimizer);
  return collector;
}

// Allocates salt: one unrooted large spacer (garbage, so everything above it
// must slide down — guaranteeing displaced moves), then `count` rooted large
// arrays with deterministic payloads.
void PlantSalt(rt::Jvm& jvm, const OracleConfig& config) {
  if (config.large_object_salt == 0) return;
  const std::uint64_t data_bytes =
      config.salt_object_bytes - rt::ObjectBytes(0, 0);
  const std::uint64_t spacer_bytes =
      (config.salt_spacer_bytes != 0 ? config.salt_spacer_bytes
                                     : config.salt_object_bytes) -
      rt::ObjectBytes(0, 0);
  // Spacer: allocated but never rooted.
  jvm.New(workloads::kTypeDataArray, 0, spacer_bytes);
  for (unsigned i = 0; i < config.large_object_salt; ++i) {
    const rt::vaddr_t addr =
        jvm.New(workloads::kTypeDataArray, 0, data_bytes);
    rt::ObjectView view = jvm.View(addr);
    const std::uint64_t words = view.data_words();
    for (std::uint64_t w = 0; w < words; ++w) {
      view.set_data_word(
          w, (std::uint64_t{i} << 48) ^ (w * 0x9E3779B97F4A7C15ULL));
    }
    jvm.roots().Add(addr);
  }
}

struct MovePrediction {
  bool valid = false;
  std::uint64_t swapped_bytes = 0;
  std::uint64_t copied_bytes = 0;
};

// Predicts the swap arm's byte totals from the digests alone. Liveness is a
// BFS over the pre-GC reference graph from the roots; sliding compaction
// preserves address order, so the i-th live pre object lands at the i-th
// post object. Each displaced pair replays Algorithm 3's dispatch: SwapVA
// (page-rounded bytes) when the object is at least the threshold and both
// endpoints page-aligned, memmove (exact bytes) otherwise.
MovePrediction PredictMoveBytes(const HeapDigest& pre, const HeapDigest& post,
                                const OracleConfig& config) {
  MovePrediction out;
  if (!pre.valid || !post.valid) return out;
  // The per-object dispatch replay below has no notion of coalesced runs or
  // a pinned prefix; with the plan optimizer on, the prediction is invalid.
  if (config.plan_optimizer.enabled()) return out;

  std::unordered_map<rt::vaddr_t, std::size_t> index;
  index.reserve(pre.objects.size());
  for (std::size_t i = 0; i < pre.objects.size(); ++i) {
    index.emplace(pre.objects[i].addr, i);
  }
  std::vector<bool> live(pre.objects.size(), false);
  std::vector<std::size_t> queue;
  auto visit = [&](rt::vaddr_t addr) {
    if (addr == 0) return;
    const auto it = index.find(addr);
    if (it == index.end() || live[it->second]) return;
    live[it->second] = true;
    queue.push_back(it->second);
  };
  for (const rt::vaddr_t root : pre.roots) visit(root);
  while (!queue.empty()) {
    const std::size_t i = queue.back();
    queue.pop_back();
    for (const rt::vaddr_t ref : pre.objects[i].refs) visit(ref);
  }

  std::size_t j = 0;
  for (std::size_t i = 0; i < pre.objects.size(); ++i) {
    if (!live[i]) continue;
    if (j >= post.objects.size()) return out;  // pairing broke down
    const DigestObject& src = pre.objects[i];
    const DigestObject& dst = post.objects[j];
    ++j;
    if (src.size != dst.size) return out;
    if (src.addr == dst.addr) continue;  // not displaced, never moved
    const bool swappable =
        src.size >= config.swap_threshold_pages * sim::kPageSize &&
        IsAligned(src.addr, sim::kPageSize) &&
        IsAligned(dst.addr, sim::kPageSize);
    if (swappable) {
      out.swapped_bytes += CeilDiv(src.size, sim::kPageSize) << sim::kPageShift;
    } else {
      out.copied_bytes += src.size;
    }
  }
  if (j != post.objects.size()) return out;
  out.valid = true;
  return out;
}

}  // namespace

HeapDigest DigestHeap(rt::Jvm& jvm) {
  HeapDigest digest;
  jvm.RetireAllTlabs();
  rt::Heap& heap = jvm.heap();
  sim::AddressSpace& as = jvm.address_space();
  digest.top = heap.top();

  auto fail = [&](std::string message) {
    digest.valid = false;
    digest.error = std::move(message);
  };

  rt::vaddr_t cursor = heap.base();
  while (cursor < heap.top()) {
    const std::uint64_t word = as.ReadWord(cursor);
    if (rt::IsFillerWord(word)) {
      const std::uint64_t gap = rt::FillerGapBytes(word);
      if (gap == 0 || (gap & 7) != 0 || cursor + gap > heap.top()) {
        fail(Format("unparsable filler at 0x%llx", (unsigned long long)cursor));
        return digest;
      }
      digest.fillers.emplace_back(cursor, gap);
      cursor += gap;
      continue;
    }
    const std::uint64_t size = word;
    if (size < rt::kMinObjectBytes || (size & 7) != 0 ||
        cursor + size > heap.top()) {
      fail(Format("unparsable object size at 0x%llx",
                  (unsigned long long)cursor));
      return digest;
    }
    DigestObject obj;
    obj.addr = cursor;
    obj.size = size;
    rt::ObjectView view(as, cursor);
    obj.type_id = view.type_id();
    obj.num_refs = view.num_refs();
    if (rt::ObjectBytes(obj.num_refs, 0) > size) {
      fail(Format("refs overflow object at 0x%llx",
                  (unsigned long long)cursor));
      return digest;
    }
    obj.refs.reserve(obj.num_refs);
    for (std::uint32_t i = 0; i < obj.num_refs; ++i) {
      obj.refs.push_back(view.ref(i));
    }
    obj.payload_hash = HashRange(as, view.data_base(), cursor + size);
    digest.objects.push_back(std::move(obj));
    cursor += size;
  }
  if (cursor != heap.top()) {
    fail(Format("walk ended at 0x%llx, top 0x%llx", (unsigned long long)cursor,
                (unsigned long long)heap.top()));
    return digest;
  }
  digest.roots = jvm.roots().SnapshotSlots();
  return digest;
}

std::string CompareDigests(const HeapDigest& swap_arm,
                           const HeapDigest& copy_arm) {
  if (!swap_arm.valid) return "swap arm heap unparsable: " + swap_arm.error;
  if (!copy_arm.valid) return "copy arm heap unparsable: " + copy_arm.error;
  if (swap_arm.top != copy_arm.top) {
    return Format("top differs: swap 0x%llx vs copy 0x%llx",
                  (unsigned long long)swap_arm.top,
                  (unsigned long long)copy_arm.top);
  }
  if (swap_arm.objects.size() != copy_arm.objects.size()) {
    return Format("object count differs: swap %zu vs copy %zu",
                  swap_arm.objects.size(), copy_arm.objects.size());
  }
  for (std::size_t i = 0; i < swap_arm.objects.size(); ++i) {
    const DigestObject& a = swap_arm.objects[i];
    const DigestObject& b = copy_arm.objects[i];
    if (a == b) continue;
    if (a.addr != b.addr || a.size != b.size) {
      return Format(
          "object %zu layout differs: (0x%llx, %llu) vs (0x%llx, %llu)", i,
          (unsigned long long)a.addr, (unsigned long long)a.size,
          (unsigned long long)b.addr, (unsigned long long)b.size);
    }
    if (a.type_id != b.type_id || a.num_refs != b.num_refs ||
        a.refs != b.refs) {
      return Format("object %zu at 0x%llx header/refs differ", i,
                    (unsigned long long)a.addr);
    }
    return Format("object %zu at 0x%llx payload differs", i,
                  (unsigned long long)a.addr);
  }
  if (swap_arm.fillers != copy_arm.fillers) return "filler placement differs";
  if (swap_arm.roots != copy_arm.roots) return "root targets differ";
  return "";
}

OracleResult RunDifferentialOracle(const OracleConfig& config) {
  auto workload = workloads::MakeWorkload(config.workload);
  SVAGC_CHECK(workload != nullptr);
  const workloads::WorkloadInfo& info = workload->info();

  // Each salt object may be aligned up and tail-padded at its allocation
  // grain — 2 MiB when the huge class is on, one page otherwise.
  const std::uint64_t salt_grain =
      config.huge_threshold_pages != 0 ? sim::kHugePageSize : sim::kPageSize;
  const std::uint64_t salt_bytes =
      static_cast<std::uint64_t>(config.large_object_salt + 1) *
      (config.salt_object_bytes + 2 * salt_grain);
  const std::uint64_t heap_bytes =
      AlignUp(static_cast<std::uint64_t>(
                  static_cast<double>(info.min_heap_bytes) *
                  config.heap_factor) +
                  salt_bytes,
              sim::kPageSize);

  sim::Machine machine(config.machine_cores, sim::ProfileXeonGold6130(),
                       config.translation_backend);
  sim::Kernel kernel(machine);
  sim::PhysicalMemory phys(heap_bytes + (8ULL << 20));

  rt::JvmConfig jvm_config;
  jvm_config.heap.capacity = heap_bytes;
  jvm_config.heap.swap_threshold_pages = config.swap_threshold_pages;
  jvm_config.heap.page_align_large = true;
  jvm_config.heap.huge_threshold_pages = config.huge_threshold_pages;
  jvm_config.logical_threads = info.logical_threads;
  jvm_config.gc_threads = config.gc_threads;
  jvm_config.name = "oracle:" + info.name;
  rt::Jvm jvm(machine, phys, kernel, jvm_config);

  if (config.far_residency < 1.0) {
    SVAGC_CHECK(config.far_residency > 0.0);
    const std::uint64_t heap_pages = heap_bytes >> sim::kPageShift;
    sim::FarTierConfig tier;
    tier.resident_limit_pages = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(heap_pages) *
                                      config.far_residency));
    // The enable-time evictions charge a scratch context; the compared
    // cycles' accounts stay clean.
    sim::CpuContext tier_ctx(machine, /*core_id=*/0);
    jvm.address_space().EnableFarTier(kernel, tier_ctx, tier);
  }

  // Warmup under the real collector (Setup/Iterate may trigger cycles).
  jvm.set_collector(MakeArmCollector(config, machine, /*use_swapva=*/true));
  workload->Setup(jvm);
  for (unsigned i = 0; i < config.warmup_iterations; ++i) {
    workload->Iterate(jvm);
  }
  PlantSalt(jvm, config);

  const rt::HeapSnapshot snapshot = rt::SnapshotHeap(jvm);
  const InvariantRegistry registry = InvariantRegistry::Default();
  OracleResult result;

  // Pre-GC digest for the move-bytes prediction, taken on a scratch restore
  // so arm A still starts from the pristine snapshot.
  rt::RestoreHeap(jvm, snapshot);
  const HeapDigest pre_digest = DigestHeap(jvm);

  // Arm A: SwapVA moves. The fault hook (when any) covers exactly this
  // compared cycle: injected swap/pin/shootdown faults exercise the recovery
  // paths, and the digest comparison below proves recovery converged to the
  // clean memmove arm's heap.
  rt::RestoreHeap(jvm, snapshot);
  jvm.set_collector(MakeArmCollector(config, machine, /*use_swapva=*/true));
  if (config.swap_arm_fault_hook != nullptr) {
    kernel.set_fault_hook(config.swap_arm_fault_hook);
  }
  jvm.collector().Collect(jvm);
  kernel.set_fault_hook(nullptr);
  const telemetry::MetricsRegistry& metrics =
      dynamic_cast<gc::CollectorBase&>(jvm.collector()).metrics();
  result.swapped_bytes = metrics.CounterValue("gc.bytes_swapped");
  result.memmoved_bytes = metrics.CounterValue("gc.bytes_copied");
  if (config.drop_move) {
    result.moves_dropped =
        static_cast<DropMoveCollector&>(jvm.collector()).moves_dropped();
  }
  result.invariants_swap = registry.RunAll(jvm);
  const HeapDigest swap_digest = DigestHeap(jvm);
  result.swap_digest = swap_digest;
  const MovePrediction prediction =
      PredictMoveBytes(pre_digest, swap_digest, config);
  result.prediction_valid = prediction.valid;
  result.predicted_swapped_bytes = prediction.swapped_bytes;
  result.predicted_memmoved_bytes = prediction.copied_bytes;

  // Arm B: identical collector, memmove only.
  rt::RestoreHeap(jvm, snapshot);
  jvm.set_collector(MakeArmCollector(config, machine, /*use_swapva=*/false));
  jvm.collector().Collect(jvm);
  result.invariants_copy = registry.RunAll(jvm);
  const HeapDigest copy_digest = DigestHeap(jvm);

  result.divergence = CompareDigests(swap_digest, copy_digest);
  result.match = result.divergence.empty();
  if (swap_digest.valid) {
    result.objects = swap_digest.objects.size();
    for (const DigestObject& obj : swap_digest.objects) {
      result.live_bytes += obj.size;
    }
  }
  return result;
}

}  // namespace svagc::verify
