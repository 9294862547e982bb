// Deterministic interleaving-schedule driver for the mutator-concurrent
// collector (tests/concurrent_gc_test.cc).
//
// A schedule is a pure function of (shape, seed): the op stream is generated
// up front from structural choices only (root index, slot indices, op kind),
// never from runtime addresses, so the *identical mutator program* can be
// executed three ways:
//
//   1. the concurrent arm — ops interleaved with GC quanta (StepPhase) and
//      cycle starts (BeginCycle) chosen by a seeded scheduler,
//   2. the STW reference arm — the same ops replayed with Collect() at the
//      op indices the concurrent arm started cycles at, and
//   3. the shadow graph — a plain-struct mirror updated by every op.
//
// All three must agree on the canonical reachable-graph digest
// (verify::DigestReachableGraph) at the end. Along the way the driver
// asserts, continuously, that every reference observed through the read
// barrier resolves to an object whose header and payload match the shadow
// (no stale pre-forwarding address ever reaches the mutator), and — at each
// remark it observes — that the concurrent mark set equals
// shadow-reachable-at-BeginCycle plus objects allocated while the SATB
// barrier was on.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/concurrent_svagc_collector.h"
#include "runtime/heap_verifier.h"
#include "runtime/jvm.h"
#include "tests/test_util.h"
#include "verify/graph_digest.h"

namespace svagc::testing {

struct ScheduleShape {
  const char* name;
  unsigned roots = 8;
  unsigned ops = 600;
  unsigned max_refs = 3;        // allocation fan-out: 1..max_refs
  unsigned max_data_words = 6;  // allocation payload: 1..max_data_words
  unsigned walk_depth = 3;
  unsigned large_every = 0;     // every Nth alloc is large (0 = never)
  std::uint64_t large_data_bytes = 12 * sim::kPageSize;
  std::uint64_t heap_bytes = 24ULL << 20;
  double gc_prob = 0.5;     // P(one more GC quantum after an op | active)
  double begin_prob = 0.1;  // P(BeginCycle after an op | idle)
};

struct MutatorOp {
  enum class Kind : unsigned { kAlloc, kLinkPrev, kNullSlot, kStamp, kRootSet };
  Kind kind = Kind::kAlloc;
  unsigned root = 0;
  unsigned depth = 0;
  unsigned slots[4] = {0, 0, 0, 0};  // walk slot choices (mod fan-out)
  unsigned num_refs = 0;             // kAlloc fan-out choice
  unsigned data_words = 0;           // kAlloc payload choice
  unsigned slot = 0;                 // target slot / stamp word choice
  std::uint64_t value = 0;           // stamp / allocation tag
  bool large = false;
};

// The op stream depends only on (shape, seed) — never on heap state.
inline std::vector<MutatorOp> GenerateOps(const ScheduleShape& shape,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<MutatorOp> ops;
  ops.reserve(shape.ops);
  unsigned allocs = 0;
  for (unsigned i = 0; i < shape.ops; ++i) {
    MutatorOp op;
    const double k = unit(rng);
    op.kind = k < 0.35   ? MutatorOp::Kind::kAlloc
              : k < 0.60 ? MutatorOp::Kind::kStamp
              : k < 0.75 ? MutatorOp::Kind::kLinkPrev
              : k < 0.90 ? MutatorOp::Kind::kNullSlot
                         : MutatorOp::Kind::kRootSet;
    op.root = static_cast<unsigned>(rng() % shape.roots);
    op.depth = static_cast<unsigned>(rng() % (shape.walk_depth + 1));
    for (unsigned d = 0; d < 4; ++d) {
      op.slots[d] = static_cast<unsigned>(rng() & 0xFFFF);
    }
    op.num_refs = 1 + static_cast<unsigned>(rng() % shape.max_refs);
    op.data_words = 1 + static_cast<unsigned>(rng() % shape.max_data_words);
    op.slot = static_cast<unsigned>(rng() & 0xFFFF);
    op.value = rng() | 1;  // nonzero stamps
    if (op.kind == MutatorOp::Kind::kAlloc) {
      ++allocs;
      op.large = shape.large_every != 0 && allocs % shape.large_every == 0;
    }
    ops.push_back(op);
  }
  return ops;
}

// ---------------------------------------------------------------------------

struct ShadowNode {
  std::uint32_t type_id = 0;
  std::vector<ShadowNode*> refs;
  std::vector<std::uint64_t> data;
  std::uint64_t size_bytes = 0;
};

class ShadowGraph {
 public:
  ShadowNode* NewNode(std::uint32_t type_id, unsigned num_refs,
                      std::uint64_t data_words) {
    auto node = std::make_unique<ShadowNode>();
    node->type_id = type_id;
    node->refs.assign(num_refs, nullptr);
    node->data.assign(data_words, 0);
    node->size_bytes = rt::ObjectBytes(num_refs, data_words * 8);
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
  }

  std::vector<ShadowNode*>& roots() { return roots_; }

  // Mirrors verify::DigestReachableGraph exactly: non-null roots in slot
  // order (RootSet::ForEachSlot skips null slots), BFS with 1-based
  // canonical ids, then nodes folded in id order.
  std::uint64_t Digest() const {
    std::unordered_map<const ShadowNode*, std::uint64_t> id;
    std::vector<const ShadowNode*> order;
    std::deque<const ShadowNode*> queue;
    const auto visit = [&](const ShadowNode* node) -> std::uint64_t {
      if (node == nullptr) return 0;
      const auto [it, inserted] = id.emplace(node, order.size() + 1);
      if (inserted) {
        order.push_back(node);
        queue.push_back(node);
      }
      return it->second;
    };
    verify::GraphDigestBuilder builder;
    std::vector<std::uint64_t> root_ids;
    for (const ShadowNode* root : roots_) {
      if (root != nullptr) root_ids.push_back(visit(root));
    }
    for (const std::uint64_t root : root_ids) builder.AddRoot(root);
    while (!queue.empty()) {
      const ShadowNode* node = queue.front();
      queue.pop_front();
      for (const ShadowNode* ref : node->refs) visit(ref);
    }
    std::vector<std::uint64_t> ref_ids;
    for (const ShadowNode* node : order) {
      ref_ids.clear();
      for (const ShadowNode* ref : node->refs) {
        ref_ids.push_back(ref == nullptr ? 0 : id.at(ref));
      }
      builder.AddNode(node->type_id,
                      static_cast<std::uint32_t>(node->refs.size()), ref_ids,
                      node->data);
    }
    return builder.digest();
  }

  // Reachable-set cardinality and byte total (the SATB mark-set oracle).
  void Reachable(std::uint64_t* count, std::uint64_t* bytes) const {
    std::unordered_set<const ShadowNode*> seen;
    std::vector<const ShadowNode*> stack;
    for (const ShadowNode* root : roots_) {
      if (root != nullptr && seen.insert(root).second) stack.push_back(root);
    }
    *count = 0;
    *bytes = 0;
    while (!stack.empty()) {
      const ShadowNode* node = stack.back();
      stack.pop_back();
      ++*count;
      *bytes += node->size_bytes;
      for (const ShadowNode* ref : node->refs) {
        if (ref != nullptr && seen.insert(ref).second) stack.push_back(ref);
      }
    }
  }

 private:
  std::vector<std::unique_ptr<ShadowNode>> nodes_;
  std::vector<ShadowNode*> roots_;
};

// ---------------------------------------------------------------------------

struct ScheduleRunResult {
  std::uint64_t heap_digest = 0;
  std::uint64_t shadow_digest = 0;
  std::vector<unsigned> begin_ops;   // BeginCycle fired before op [i]
  unsigned cycles_started = 0;
  unsigned satb_checks = 0;          // mark-set identity checks performed
  std::uint64_t satb_enqueued_total = 0;  // across driver-observed remarks
  std::uint64_t barrier_reads_checked = 0;
  bool heap_verified = false;
};

constexpr std::uint32_t kScheduleTypeId = 77;

class ScheduleDriver {
 public:
  ScheduleDriver(const ScheduleShape& shape,
                 const core::ConcurrentSvagcConfig& config = {})
      : shape_(shape), sim_(4, shape.heap_bytes + (64ULL << 20)) {
    rt::JvmConfig jvm_config;
    jvm_config.heap.capacity = shape.heap_bytes;
    jvm_config.heap.page_align_large = true;
    jvm_config.logical_threads = 1;
    jvm_config.gc_threads = 2;
    jvm_config.name = std::string("schedule:") + shape.name;
    jvm_ = std::make_unique<rt::Jvm>(sim_.machine, sim_.phys, sim_.kernel,
                                     jvm_config);
    auto owned = std::make_unique<core::ConcurrentSvagcCollector>(
        sim_.machine, /*first_core=*/0, config);
    collector_ = owned.get();
    jvm_->set_collector(std::move(owned));
    jvm_->set_gc_barrier(collector_);

    // R rooted seed objects so every walk has somewhere to start.
    for (unsigned r = 0; r < shape.roots; ++r) {
      const auto [name, node] = Allocate(shape.max_refs, 2, 10000 + r, false);
      handles_.push_back(jvm_->roots().Add(name));
      shadow_.roots().push_back(node);
    }
  }

  core::ConcurrentSvagcCollector& collector() { return *collector_; }
  rt::Jvm& jvm() { return *jvm_; }

  // Concurrent arm: seeded scheduler interleaves GC quanta with the ops.
  ScheduleRunResult RunConcurrent(const std::vector<MutatorOp>& ops,
                                  std::uint64_t schedule_seed) {
    std::mt19937_64 rng(schedule_seed ^ 0x5EEDC0DE5EEDC0DEULL);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (unsigned i = 0; i < ops.size(); ++i) {
      const std::uint64_t gc_before = jvm_->gc_count();
      ExecOp(ops[i]);
      if (jvm_->gc_count() != gc_before) {
        // Allocation failure finished the cycle inline (and may have run a
        // fresh STW one); the driver's SATB bookkeeping is stale.
        awaiting_satb_check_ = false;
      }
      if (collector_->cycle_active()) {
        while (collector_->cycle_active() && unit(rng) < shape_.gc_prob) {
          StepOnce();
        }
      } else if (unit(rng) < shape_.begin_prob) {
        collector_->BeginCycle(*jvm_);
        result_.begin_ops.push_back(i + 1);  // "before op i+1"
        ++result_.cycles_started;
        ArmSatbCheck();
      }
    }
    Finish();
    return result_;
  }

  // STW reference arm: the same ops, whole Collect() cycles at the indices
  // the concurrent arm chose.
  ScheduleRunResult RunStwReplay(const std::vector<MutatorOp>& ops,
                                 const std::vector<unsigned>& begin_ops) {
    std::size_t next = 0;
    for (unsigned i = 0; i < ops.size(); ++i) {
      while (next < begin_ops.size() && begin_ops[next] == i) {
        collector_->Collect(*jvm_);
        ++next;
      }
      ExecOp(ops[i]);
    }
    Finish();
    return result_;
  }

 private:
  struct Cursor {
    rt::vaddr_t name = 0;  // mutator (old-form) name, 0 = null
    ShadowNode* node = nullptr;
  };

  std::pair<rt::vaddr_t, ShadowNode*> Allocate(unsigned num_refs,
                                               std::uint64_t data_words,
                                               std::uint64_t tag, bool large) {
    if (large) {
      data_words = shape_.large_data_bytes / 8;
    }
    const rt::vaddr_t name =
        jvm_->New(kScheduleTypeId, num_refs, data_words * 8);
    if (awaiting_satb_check_ &&
        (collector_->phase() == core::ConcPhase::kMark ||
         collector_->phase() == core::ConcPhase::kRemark)) {
      // Allocated while the SATB barrier is on: allocate-black makes it part
      // of this cycle's mark set.
      ++satb_alloc_count_;
      satb_alloc_bytes_ += rt::ObjectBytes(num_refs, data_words * 8);
    }
    ShadowNode* node = shadow_.NewNode(kScheduleTypeId, num_refs, data_words);
    rt::ObjectView view = jvm_->View(jvm_->ResolveRef(name));
    view.set_data_word(0, tag);
    node->data[0] = tag;
    return {name, node};
  }

  // The staleness assertion: whatever name the barrier handed us must
  // resolve to bytes that match the shadow node — a stale pre-forwarding
  // address would surface as a garbage header or a foreign payload here.
  void VerifyCursor(const Cursor& cursor) {
    if (cursor.node == nullptr) return;
    rt::ObjectView view = jvm_->View(jvm_->ResolveRef(cursor.name));
    EXPECT_EQ(view.size(), cursor.node->size_bytes);
    EXPECT_EQ(view.type_id(), cursor.node->type_id);
    EXPECT_EQ(view.num_refs(), cursor.node->refs.size());
    if (!cursor.node->data.empty()) {
      EXPECT_EQ(view.data_word(0), cursor.node->data[0]);
      const std::uint64_t last = cursor.node->data.size() - 1;
      EXPECT_EQ(view.data_word(last), cursor.node->data[last]);
    }
    ++result_.barrier_reads_checked;
  }

  void ExecOp(const MutatorOp& op) {
    // Walk: identical structural path through heap and shadow.
    Cursor cur;
    Cursor prev;
    const rt::RootSet::Handle handle = handles_[op.root % handles_.size()];
    cur.name = jvm_->ReadRoot(handle);
    cur.node = shadow_.roots()[op.root % handles_.size()];
    ASSERT_EQ(cur.name == 0, cur.node == nullptr);
    VerifyCursor(cur);
    for (unsigned d = 0; d < op.depth && cur.node != nullptr; ++d) {
      if (cur.node->refs.empty()) break;
      const unsigned slot =
          op.slots[d] % static_cast<unsigned>(cur.node->refs.size());
      Cursor next;
      next.name = jvm_->ReadRef(cur.name, slot, /*logical_thread=*/0);
      next.node = cur.node->refs[slot];
      ASSERT_EQ(next.name == 0, next.node == nullptr);
      if (next.node == nullptr) break;
      prev = cur;
      cur = next;
      VerifyCursor(cur);
    }

    switch (op.kind) {
      case MutatorOp::Kind::kAlloc: {
        const auto [name, node] =
            Allocate(op.num_refs, op.data_words, op.value, op.large);
        if (cur.node != nullptr && !cur.node->refs.empty()) {
          const unsigned slot =
              op.slot % static_cast<unsigned>(cur.node->refs.size());
          jvm_->WriteRef(cur.name, slot, name);
          cur.node->refs[slot] = node;
        } else {
          jvm_->WriteRoot(handle, name);
          shadow_.roots()[op.root % handles_.size()] = node;
        }
        break;
      }
      case MutatorOp::Kind::kLinkPrev: {
        if (cur.node == nullptr || prev.node == nullptr ||
            cur.node->refs.empty()) {
          break;
        }
        const unsigned slot =
            op.slot % static_cast<unsigned>(cur.node->refs.size());
        jvm_->WriteRef(cur.name, slot, prev.name);
        cur.node->refs[slot] = prev.node;
        break;
      }
      case MutatorOp::Kind::kNullSlot: {
        if (cur.node == nullptr || cur.node->refs.empty()) break;
        const unsigned slot =
            op.slot % static_cast<unsigned>(cur.node->refs.size());
        jvm_->WriteRef(cur.name, slot, 0);
        cur.node->refs[slot] = nullptr;
        break;
      }
      case MutatorOp::Kind::kStamp: {
        if (cur.node == nullptr || cur.node->data.empty()) break;
        const std::uint64_t word =
            op.slot % static_cast<std::uint64_t>(cur.node->data.size());
        rt::ObjectView view = jvm_->View(jvm_->ResolveRef(cur.name));
        view.set_data_word(word, op.value);
        cur.node->data[word] = op.value;
        // Read back through a fresh resolve: the stamp must be observable.
        EXPECT_EQ(jvm_->View(jvm_->ResolveRef(cur.name)).data_word(word),
                  op.value);
        break;
      }
      case MutatorOp::Kind::kRootSet: {
        jvm_->WriteRoot(handle, cur.name);
        shadow_.roots()[op.root % handles_.size()] = cur.node;
        break;
      }
    }
  }

  void ArmSatbCheck() {
    shadow_.Reachable(&satb_snapshot_count_, &satb_snapshot_bytes_);
    satb_alloc_count_ = 0;
    satb_alloc_bytes_ = 0;
    awaiting_satb_check_ = true;
  }

  // SATB mark-set identity, checked the moment remark completes: concurrent
  // marking + the remark drain must mark exactly the snapshot-reachable set
  // plus the allocated-black objects — nothing lost (correctness), nothing
  // beyond floating garbage the shadow also saw as reachable (precision).
  void CheckSatbIfRemarkRan(core::ConcPhase before, core::ConcPhase after) {
    if (before != core::ConcPhase::kRemark ||
        after == core::ConcPhase::kRemark) {
      return;
    }
    // The collector's SATB counter is per-cycle; fold it into the run total
    // while it is still the just-finished cycle's value.
    result_.satb_enqueued_total += collector_->satb_enqueued();
    if (!awaiting_satb_check_) return;
    EXPECT_EQ(collector_->marked_objects(),
              satb_snapshot_count_ + satb_alloc_count_);
    EXPECT_EQ(collector_->marked_bytes(),
              satb_snapshot_bytes_ + satb_alloc_bytes_);
    ++result_.satb_checks;
    awaiting_satb_check_ = false;
  }

  void StepOnce() {
    const core::ConcPhase before = collector_->phase();
    collector_->StepPhase();
    CheckSatbIfRemarkRan(before, collector_->phase());
  }

  void Finish() {
    while (collector_->cycle_active()) StepOnce();
    result_.heap_verified = rt::VerifyHeap(*jvm_).ok;
    EXPECT_TRUE(result_.heap_verified);
    result_.heap_digest = verify::DigestReachableGraph(*jvm_);
    result_.shadow_digest = shadow_.Digest();
    EXPECT_EQ(result_.heap_digest, result_.shadow_digest);
  }

  ScheduleShape shape_;
  SimBundle sim_;
  std::unique_ptr<rt::Jvm> jvm_;
  core::ConcurrentSvagcCollector* collector_ = nullptr;
  ShadowGraph shadow_;
  std::vector<rt::RootSet::Handle> handles_;
  ScheduleRunResult result_;

  bool awaiting_satb_check_ = false;
  std::uint64_t satb_snapshot_count_ = 0;
  std::uint64_t satb_snapshot_bytes_ = 0;
  std::uint64_t satb_alloc_count_ = 0;
  std::uint64_t satb_alloc_bytes_ = 0;
};

}  // namespace svagc::testing
