#include "core/generational_collector.h"

#include <algorithm>
#include <numeric>

#include "gc/mark_bitmap.h"

#include "support/align.h"

namespace svagc::core {

GenerationalCollector::GenerationalCollector(
    sim::Machine& machine, unsigned first_core,
    std::unique_ptr<gc::ParallelLisp2> inner, const GenerationalConfig& config)
    : gc::CollectorBase(machine, std::max(1u, config.gang_workers), first_core,
                        inner != nullptr ? &inner->metrics() : nullptr),
      config_(config),
      inner_(std::move(inner)),
      governor_(config.pressure) {
  SVAGC_CHECK(inner_ != nullptr);
  SVAGC_CHECK(config_.tenure_age >= 1);
  SVAGC_CHECK(config_.bypass_bytes > rt::kMinObjectBytes);
}

GenerationalCollector::~GenerationalCollector() = default;

// --- allocation front end ---------------------------------------------------

void GenerationalCollector::EnsureYoung(rt::Jvm& jvm) {
  if (inner_->cycle_active()) return;
  if (young_ != nullptr && young_->attached()) return;
  rt::Heap& heap = jvm.heap();
  // Adaptive sizing: claim young_fraction of the remaining heap (tenure
  // batches and bypass allocations need the rest), with young_bytes == 0
  // meaning exactly that auto target. An explicit target is still capped
  // at 90% of the headroom so the old space never starts out starved.
  const std::uint64_t headroom = heap.capacity() - heap.used();
  const std::uint64_t auto_target = AlignDown(
      static_cast<std::uint64_t>(static_cast<double>(headroom) *
                                 config_.young_fraction),
      sim::kPageSize);
  const std::uint64_t cap =
      AlignDown(headroom - headroom / 10, sim::kPageSize);
  const std::uint64_t target =
      config_.young_bytes == 0 ? std::min(auto_target, cap)
                               : std::min(config_.young_bytes, cap);
  // Zones shrink with the extent so every mutator thread still gets a few
  // refills out of a small nursery; below the two-page YoungSpace floor a
  // nursery is not worth attaching.
  const unsigned threads = std::max(1u, jvm.num_mutators());
  const std::uint64_t zone = std::min<std::uint64_t>(
      config_.young.zone_bytes,
      AlignDown(target / (4ULL * threads), sim::kPageSize));
  if (zone < 2 * sim::kPageSize) return;
  YoungSpaceConfig young_config = config_.young;
  young_config.zone_bytes = zone;
  // Detached young spaces hold no state worth keeping — rebuild with the
  // zone size this extent supports.
  young_ = std::make_unique<YoungSpace>(heap, threads, young_config);
  young_->Attach(target);
}

rt::vaddr_t GenerationalCollector::YoungAllocate(rt::Jvm& jvm,
                                                 std::uint64_t bytes,
                                                 unsigned logical_thread) {
  // Large-class objects must stay page-aligned so a later tenure move can
  // swap instead of copy; anything that would dominate a zone gets its own
  // run as well.
  const bool own_run = bytes > young_->config().zone_bytes / 2 ||
                       jvm.heap().IsLargeObject(bytes);
  return own_run ? young_->AllocateRunObject(bytes)
                 : young_->AllocateSmall(bytes, logical_thread);
}

rt::vaddr_t GenerationalCollector::AllocateObject(rt::Jvm& jvm,
                                                  std::uint64_t bytes,
                                                  unsigned logical_thread) {
  if (collecting_ || inner_->cycle_active() || young_starved_) return 0;
  if (bytes >= config_.bypass_bytes || jvm.heap().IsHugeObject(bytes)) {
    return 0;  // straight to the old space, page-aligned by AllocateRaw
  }
  EnsureYoung(jvm);
  if (young_ == nullptr || !young_->attached()) return 0;
  if (rt::vaddr_t addr = YoungAllocate(jvm, bytes, logical_thread); addr != 0)
    return addr;

  // Zone/extent exhaustion — the minor-GC trigger.
  if (!MinorCollect(jvm)) {
    // The old space could not host the tenure batch: full collection.
    Collect(jvm);
    jvm.NoteCollectorTriggeredGc();
  } else if (config_.pressure_enabled && Escalate(jvm, last_minor_)) {
    Collect(jvm);
    jvm.NoteCollectorTriggeredGc();
  }
  EnsureYoung(jvm);  // a full cycle abandons the nursery; re-carve it
  if (young_ == nullptr || !young_->attached()) return 0;
  const rt::vaddr_t addr = YoungAllocate(jvm, bytes, logical_thread);
  if (addr == 0 && young_->LargestFreeRun() < young_->config().zone_bytes) {
    // Even a scavenge freed less than one zone: the live young set fills
    // the extent and further minors would thrash. Park the nursery until
    // the next full collection resets it.
    young_starved_ = true;
  }
  return addr;
}

// --- write barrier (remembered set) -----------------------------------------

std::vector<rt::vaddr_t>& GenerationalCollector::SsbFor(
    unsigned logical_thread) {
  if (logical_thread >= ssb_.size()) ssb_.resize(logical_thread + 1);
  return ssb_[logical_thread];
}

rt::vaddr_t GenerationalCollector::ReadRef(rt::Jvm& jvm, rt::vaddr_t obj,
                                           std::uint32_t slot,
                                           unsigned /*logical_thread*/) {
  return jvm.View(obj).ref(slot);
}

void GenerationalCollector::WriteRef(rt::Jvm& jvm, rt::vaddr_t obj,
                                     std::uint32_t slot, rt::vaddr_t value,
                                     unsigned logical_thread) {
  if (value != 0 && in_young(value) && !in_young(obj)) {
    SsbFor(logical_thread % jvm.num_mutators())
        .push_back(SlotAddr(obj, slot));
  }
  jvm.View(obj).set_ref(slot, value);
}

rt::vaddr_t GenerationalCollector::ReadRoot(rt::Jvm& jvm,
                                            rt::RootSet::Handle handle) {
  return jvm.roots().Get(handle);
}

void GenerationalCollector::WriteRoot(rt::Jvm& jvm, rt::RootSet::Handle handle,
                                      rt::vaddr_t value) {
  // Roots are scanned in full by every scavenge; no recording needed.
  jvm.roots().Set(handle, value);
}

rt::vaddr_t GenerationalCollector::Resolve(rt::Jvm& /*jvm*/, rt::vaddr_t ref) {
  return ref;  // objects only move inside collections; naming is identity
}

void GenerationalCollector::OnAlloc(rt::Jvm& /*jvm*/, rt::vaddr_t /*addr*/,
                                    unsigned /*logical_thread*/) {}

void GenerationalCollector::AtSafepoint(rt::Jvm& /*jvm*/,
                                        unsigned /*logical_thread*/) {
  // Deliberately empty: mutators may hold raw object addresses across
  // safepoint polls (only allocation points are GC points for relocation),
  // so the generational collector never moves objects here.
}

// --- minor collection -------------------------------------------------------

void GenerationalCollector::DrainStoreBuffers() {
  for (auto& buf : ssb_) {
    remset_.insert(buf.begin(), buf.end());
    buf.clear();
  }
}

double GenerationalCollector::TraceYoung(rt::Jvm& jvm, MinorCycleStats* stats,
                                         std::vector<Survivor>* out) {
  const unsigned num_workers = gc_threads();
  sim::AddressSpace& as = jvm.address_space();

  // Seed scan: root slots plus the remembered set, split evenly across the
  // gang. The remset is iterated in address order so survivor discovery
  // (and with it the copy layout) is deterministic. Entries whose slot no
  // longer points young are pruned here — the only place entries leave the
  // set outside a full-GC reset.
  std::vector<rt::vaddr_t> root_slots;
  jvm.roots().ForEachSlot(
      [&](rt::vaddr_t& slot) { root_slots.push_back(slot); });
  std::vector<rt::vaddr_t> remset_slots(remset_.begin(), remset_.end());
  std::sort(remset_slots.begin(), remset_slots.end());

  std::vector<std::vector<rt::vaddr_t>> worker_out(num_workers);
  std::vector<std::vector<rt::vaddr_t>> worker_prune(num_workers);
  std::vector<std::uint64_t> worker_live(num_workers, 0);
  auto slice_of = [num_workers](std::size_t total, unsigned worker) {
    const std::size_t slice = (total + num_workers - 1) / num_workers;
    const std::size_t begin = worker * slice;
    return std::pair<std::size_t, std::size_t>{std::min(total, begin),
                                               std::min(total, begin + slice)};
  };
  double cp = RunParallelPhase([&](unsigned worker, sim::CpuContext& ctx) {
    std::vector<rt::vaddr_t>& mine = worker_out[worker];
    mine.clear();
    const auto [rb, re] = slice_of(root_slots.size(), worker);
    for (std::size_t i = rb; i < re; ++i) {
      ctx.account.Charge(sim::CostKind::kCompute, costs().root_slot);
      const rt::vaddr_t target = root_slots[i];
      if (target != 0 && young_->Contains(target)) mine.push_back(target);
    }
    const auto [sb, se] = slice_of(remset_slots.size(), worker);
    for (std::size_t i = sb; i < se; ++i) {
      ctx.account.Charge(sim::CostKind::kCompute, costs().root_slot);
      const rt::vaddr_t slot = remset_slots[i];
      const rt::vaddr_t target = as.ReadWord(slot);
      if (target != 0 && young_->Contains(target)) {
        ++worker_live[worker];
        mine.push_back(target);
      } else {
        worker_prune[worker].push_back(slot);
      }
    }
  });
  for (const std::uint64_t live : worker_live) stats->remset_live += live;
  for (const auto& prune : worker_prune) {
    for (const rt::vaddr_t slot : prune) remset_.erase(slot);
  }

  // Level-synchronized parallel BFS over young objects only; old targets
  // are never followed (that is the whole point of the remembered set).
  // Mirrors gc::MarkParallel: the frontier is resliced every level, the
  // atomic mark bitmap's TestAndSet dedups claims across workers, and
  // each level's pause contribution is the slowest worker's share.
  gc::MarkBitmap visited(jvm.heap());
  visited.Clear();
  std::vector<rt::vaddr_t> frontier;
  for (auto& mine : worker_out) {
    frontier.insert(frontier.end(), mine.begin(), mine.end());
  }
  std::vector<std::vector<Survivor>> worker_survivors(num_workers);
  while (!frontier.empty()) {
    cp += RunParallelPhase([&](unsigned worker, sim::CpuContext& ctx) {
      std::vector<rt::vaddr_t>& mine = worker_out[worker];
      mine.clear();
      const auto [fb, fe] = slice_of(frontier.size(), worker);
      for (std::size_t i = fb; i < fe; ++i) {
        const rt::vaddr_t addr = frontier[i];
        if (!visited.TestAndSet(addr)) continue;
        ctx.account.Charge(sim::CostKind::kCompute, costs().mark_visit);
        rt::ObjectView view = jvm.View(addr);
        Survivor s;
        s.addr = addr;
        s.size = view.size();
        s.num_refs = view.num_refs();
        const auto it = ages_.find(addr);
        s.age = it == ages_.end() ? 0 : it->second;
        for (std::uint32_t r = 0; r < s.num_refs; ++r) {
          ctx.account.Charge(sim::CostKind::kCompute, costs().mark_ref);
          const rt::vaddr_t target = view.ref(r);
          if (target != 0 && young_->Contains(target) &&
              !visited.IsMarked(target)) {
            mine.push_back(target);
          }
        }
        worker_survivors[worker].push_back(s);
      }
    });
    frontier.clear();
    for (auto& mine : worker_out) {
      frontier.insert(frontier.end(), mine.begin(), mine.end());
    }
  }
  for (const auto& mine : worker_survivors) {
    out->insert(out->end(), mine.begin(), mine.end());
  }
  return cp;
}

bool GenerationalCollector::MinorCollect(rt::Jvm& jvm) {
  if (young_ == nullptr || !young_->attached()) return true;
  if (collecting_ || inner_->cycle_active()) return true;
  collecting_ = true;

  rt::GcCycleRecord rec;
  MinorCycleStats stats;

  // Drain the per-thread sequential store buffers into the remembered set.
  rec.other = RunSerialPhase([&](sim::CpuContext& ctx) {
    std::uint64_t pending = 0;
    for (const auto& buf : ssb_) pending += buf.size();
    DrainStoreBuffers();
    stats.remset_drained = pending;
    ctx.account.Charge(sim::CostKind::kCompute,
                       costs().mark_ref * static_cast<double>(pending));
  });

  // Trace from roots + remembered set on the gang.
  std::vector<Survivor> survivors;
  rec.mark = TraceYoung(jvm, &stats, &survivors);
  stats.traced_objects = survivors.size();
  stats.survivors = survivors.size();

  // Plan: age-based destinies. Page-aligned own-run stayers age in place —
  // their runs are simply kept out of the rebuilt free map, so the bulky
  // part of the live young set is never copied (the SVAGC move-avoidance
  // idea applied inside the nursery). Small zone-resident stayers are
  // packed zone-to-zone into the page-granular complement of the survivor
  // spans — i.e. into space that just died — and the tenure batch gets its
  // own old-space layout.
  const std::uint64_t threshold_bytes =
      config_.move.threshold_pages * sim::kPageSize;
  const std::uint64_t zone_half = young_->config().zone_bytes / 2;
  struct Group {
    rt::vaddr_t base = 0;
    std::uint64_t bytes = 0;
    std::vector<std::size_t> members;    // indices into `survivors`
    std::vector<std::uint64_t> offsets;  // base-relative bump positions
  };
  std::vector<Group> groups;
  std::vector<std::size_t> tenure_members;
  std::vector<std::uint64_t> tenure_dst;  // chunk-relative, parallels members
  std::uint64_t tenure_bytes = 0;
  std::vector<YoungSpace::Run> keep;
  rec.forward = RunSerialPhase([&](sim::CpuContext& ctx) {
    for (Survivor& s : survivors) {
      s.tenure = s.age + 1 >= config_.tenure_age;
      // The allocation-site own-run rule replayed on the same size: such
      // objects sit page-aligned with a fillered tail, so retaining their
      // run keeps the extent walkable with no copy at all.
      s.in_place = !s.tenure && (s.size > zone_half ||
                                 jvm.heap().IsLargeObject(s.size));
      if (s.in_place) SVAGC_CHECK(IsAligned(s.addr, sim::kPageSize));
    }
    // Copy destinations: every page not overlapped by any survivor is fair
    // game — dead objects' bytes are never read again, and the final
    // ResetFreeTo re-fillers whatever the groups do not claim.
    std::vector<std::pair<rt::vaddr_t, rt::vaddr_t>> spans;
    spans.reserve(survivors.size());
    for (const Survivor& s : survivors) {
      spans.emplace_back(s.addr, s.addr + s.size);
    }
    std::sort(spans.begin(), spans.end());
    std::vector<YoungSpace::Run> candidates;
    rt::vaddr_t cursor = young_->base();
    auto flush_gap = [&](rt::vaddr_t gap_end) {
      const rt::vaddr_t lo = AlignUp(cursor, sim::kPageSize);
      const rt::vaddr_t hi = AlignDown(gap_end, sim::kPageSize);
      if (hi > lo) candidates.push_back({lo, hi - lo});
    };
    for (const auto& [sbeg, send] : spans) {
      if (sbeg > cursor) flush_gap(sbeg);
      cursor = std::max(cursor, send);
    }
    flush_gap(young_->end());
    // First-fit, address order; members of one group are bump-packed (all
    // are below the swap threshold, so no internal alignment needed).
    std::vector<bool> placed(survivors.size(), false);
    for (const YoungSpace::Run& run : candidates) {
      Group g;
      g.base = run.base;
      rt::vaddr_t top = run.base;
      for (std::size_t i = 0; i < survivors.size(); ++i) {
        if (placed[i] || survivors[i].tenure || survivors[i].in_place) {
          continue;
        }
        if (top + survivors[i].size > run.base + run.bytes) continue;
        placed[i] = true;
        g.members.push_back(i);
        g.offsets.push_back(top - run.base);
        top += survivors[i].size;
      }
      if (g.members.empty()) continue;
      g.bytes = AlignUp(top, sim::kPageSize) - g.base;
      groups.push_back(std::move(g));
    }
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      if (!survivors[i].tenure && !survivors[i].in_place && !placed[i]) {
        // No dead run can host it: premature tenuring.
        survivors[i].tenure = true;
        ++stats.premature_tenured;
      }
    }
    std::uint64_t top = 0;
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      if (!survivors[i].tenure) continue;
      const Survivor& s = survivors[i];
      const bool large = s.size >= threshold_bytes;
      const std::uint64_t dst = large ? AlignUp(top, sim::kPageSize) : top;
      top = large ? AlignUp(dst + s.size, sim::kPageSize) : dst + s.size;
      tenure_members.push_back(i);
      tenure_dst.push_back(dst);
      stats.promoted_bytes += s.size;
    }
    tenure_bytes = AlignUp(top, sim::kPageSize);
    // Layout work is only spent on objects that actually move; in-place
    // stayers cost one destiny decision each.
    const std::size_t moved =
        survivors.size() -
        static_cast<std::size_t>(std::count_if(
            survivors.begin(), survivors.end(),
            [](const Survivor& s) { return s.in_place; }));
    ctx.account.Charge(
        sim::CostKind::kCompute,
        costs().plan_obj * static_cast<double>(survivors.size() + moved));
    // The post-scavenge young layout: in-place runs plus copy groups.
    for (const Survivor& s : survivors) {
      if (s.in_place) keep.push_back({s.addr, AlignUp(s.size, sim::kPageSize)});
    }
    for (const Group& g : groups) keep.push_back({g.base, g.bytes});
    std::sort(keep.begin(), keep.end(),
              [](const YoungSpace::Run& a, const YoungSpace::Run& b) {
                return a.base < b.base;
              });
  });
  stats.tenured = tenure_members.size();
  stats.stayed = stats.survivors - stats.tenured;

  rt::vaddr_t tenure_chunk = 0;
  if (!tenure_members.empty()) {
    tenure_chunk = jvm.heap().AllocateTlabChunk(tenure_bytes);
    if (tenure_chunk == 0) {
      // Old space cannot host the tenure batch. Nothing has moved yet
      // (only stale remset entries were pruned), so aborting is clean;
      // the caller escalates to a full collection.
      collecting_ = false;
      return false;
    }
  }

  // Evacuate on the gang. Every copy group and the tenure batch is cut
  // into contiguous member chunks of roughly (total payload / gang) bytes;
  // the chunks are then dealt to workers greedily by byte load (largest
  // first), so a minor whose copies concentrate in a few groups still
  // spreads across the whole gang. A chunk's destination base is the
  // global layout position of its first member, so the per-worker batches
  // lay out exactly like one monolithic batch — parallel scavengers'
  // PLABs. Each chunk goes through MinorEvacuator's kMinorBatch path —
  // Table I row 2, so large tenurees are SwapVA'd, not copied, and swap
  // requests aggregate per chunk. Each worker runs its own evacuator
  // (ObjectMover batches are per-call state, not shareable across
  // threads) and collects relocations locally.
  const unsigned num_workers = gc_threads();
  struct EvacTask {
    const std::vector<std::size_t>* members;
    std::size_t mb, me;          // member range [mb, me)
    rt::vaddr_t base;            // destination of member mb
    std::uint64_t region_bytes;  // chunk's slice of the region
    std::uint64_t payload;       // survivor bytes (for balancing)
  };
  std::vector<EvacTask> evac_tasks;
  {
    std::uint64_t total_payload = 0;
    for (const Group& g : groups) {
      for (const std::size_t i : g.members) total_payload += survivors[i].size;
    }
    for (const std::size_t i : tenure_members) {
      total_payload += survivors[i].size;
    }
    const std::uint64_t target =
        std::max<std::uint64_t>(1, total_payload / num_workers);
    auto chunk = [&](const std::vector<std::size_t>& members,
                     const std::vector<std::uint64_t>& offsets,
                     rt::vaddr_t base, std::uint64_t region_bytes) {
      std::size_t mb = 0;
      while (mb < members.size()) {
        std::size_t me = mb;
        std::uint64_t payload = 0;
        while (me < members.size() && (me == mb || payload < target)) {
          payload += survivors[members[me]].size;
          ++me;
        }
        const std::uint64_t end =
            me < members.size() ? offsets[me] : region_bytes;
        evac_tasks.push_back({&members, mb, me, base + offsets[mb],
                              end - offsets[mb], payload});
        mb = me;
      }
    };
    for (const Group& g : groups) chunk(g.members, g.offsets, g.base, g.bytes);
    chunk(tenure_members, tenure_dst, tenure_chunk, tenure_bytes);
  }
  std::vector<std::vector<std::size_t>> worker_tasks(num_workers);
  {
    std::vector<std::size_t> order(evac_tasks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return evac_tasks[a].payload > evac_tasks[b].payload;
                     });
    std::vector<std::uint64_t> load(num_workers, 0);
    for (const std::size_t t : order) {
      const unsigned w = static_cast<unsigned>(
          std::min_element(load.begin(), load.end()) - load.begin());
      worker_tasks[w].push_back(t);
      load[w] += evac_tasks[t].payload;
    }
  }
  std::vector<std::vector<std::pair<rt::vaddr_t, rt::vaddr_t>>> worker_reloc(
      num_workers);
  std::vector<MoveObjectStats> worker_move_stats(num_workers);
  rec.compact = RunParallelPhase([&](unsigned worker, sim::CpuContext& ctx) {
    MinorEvacuator evac(jvm, config_.move);
    auto& my_reloc = worker_reloc[worker];
    for (const std::size_t t : worker_tasks[worker]) {
      const EvacTask& task = evac_tasks[t];
      std::vector<rt::vaddr_t> addrs;
      addrs.reserve(task.me - task.mb);
      for (std::size_t k = task.mb; k < task.me; ++k) {
        addrs.push_back(survivors[(*task.members)[k]].addr);
      }
      ctx.account.Charge(
          sim::CostKind::kCompute,
          costs().move_dispatch * static_cast<double>(addrs.size()));
      const EvacuationResult res =
          evac.Evacuate(addrs, task.base, EvacuationMode::kMinorBatch, ctx);
      SVAGC_CHECK(res.relocations.size() == addrs.size());
      // The evacuator lays objects, it does not filler the gaps; restore
      // walkability (alignment gaps + region tail slack).
      rt::vaddr_t cursor = task.base;
      for (std::size_t k = 0; k < res.relocations.size(); ++k) {
        const auto& [src, dst] = res.relocations[k];
        if (dst > cursor) jvm.heap().WriteFiller(cursor, dst - cursor);
        cursor = dst + survivors[(*task.members)[task.mb + k]].size;
        my_reloc.emplace_back(src, dst);
      }
      SVAGC_CHECK(cursor <= task.base + task.region_bytes);
      jvm.heap().WriteFiller(cursor, task.base + task.region_bytes - cursor);
    }
    worker_move_stats[worker] = evac.stats();
  });
  std::unordered_map<rt::vaddr_t, rt::vaddr_t> reloc;
  reloc.reserve(survivors.size());
  for (const auto& mine : worker_reloc) {
    for (const auto& [src, dst] : mine) reloc.emplace(src, dst);
  }

  // Adjust: roots, survivor slots, remembered-set slots; then grow the
  // remembered set with the old→young edges tenuring just created. When
  // nothing moved (every stayer aged in place, nothing tenured) no slot
  // can be stale and the whole phase is free.
  rec.adjust = RunSerialPhase([&](sim::CpuContext& ctx) {
    if (reloc.empty()) return;
    auto forwarded = [&](rt::vaddr_t target) {
      const auto it = reloc.find(target);
      return it == reloc.end() ? target : it->second;
    };
    jvm.roots().ForEachSlot([&](rt::vaddr_t& slot) {
      ctx.account.Charge(sim::CostKind::kCompute, costs().root_slot);
      slot = forwarded(slot);
    });
    for (const Survivor& s : survivors) {
      if (s.num_refs == 0) continue;  // leaf: no slots to fix
      ctx.account.Charge(sim::CostKind::kCompute, costs().adjust_obj);
      rt::ObjectView view = jvm.View(forwarded(s.addr));
      for (std::uint32_t i = 0; i < s.num_refs; ++i) {
        ctx.account.Charge(sim::CostKind::kCompute, costs().adjust_ref);
        const rt::vaddr_t target = view.ref(i);
        const rt::vaddr_t moved = forwarded(target);
        if (moved != target) view.set_ref(i, moved);
      }
    }
    sim::AddressSpace& as = jvm.address_space();
    for (auto it = remset_.begin(); it != remset_.end();) {
      ctx.account.Charge(sim::CostKind::kCompute, costs().root_slot);
      const rt::vaddr_t slot = *it;
      const rt::vaddr_t target = as.ReadWord(slot);
      const rt::vaddr_t moved = forwarded(target);
      if (moved != target) as.WriteWord(slot, moved);
      // A slot whose target was tenured is no longer an old→young edge.
      if (moved != 0 && young_->Contains(moved)) {
        ++it;
      } else {
        it = remset_.erase(it);
      }
    }
    for (const std::size_t i : tenure_members) {
      const Survivor& s = survivors[i];
      const rt::vaddr_t new_addr = forwarded(s.addr);
      rt::ObjectView view = jvm.View(new_addr);
      for (std::uint32_t r = 0; r < s.num_refs; ++r) {
        const rt::vaddr_t target = view.ref(r);
        if (target != 0 && young_->Contains(target)) {
          remset_.insert(SlotAddr(new_addr, r));
        }
      }
    }
  });

  // From-space reclamation + age table rebuild. In-place stayers keep
  // their address (and so their age-table key); copied ones re-key.
  young_->ResetFreeTo(keep);
  ages_.clear();
  for (const Survivor& s : survivors) {
    if (s.tenure) continue;
    const auto it = reloc.find(s.addr);
    ages_[it == reloc.end() ? s.addr : it->second] = s.age + 1;
  }

  for (const MoveObjectStats& moved : worker_move_stats) {
    moved.PublishTo(metrics());
    counters().objects_moved.Add(moved.objects_copied + moved.objects_swapped);
  }
  log_.Record(rec);
  gc::CycleTasks tasks;
  tasks[0].push_back({0, "minor/trace", 0, rec.mark});
  tasks[1].push_back({0, "minor/plan", 0, rec.forward});
  tasks[2].push_back({0, "minor/adjust", 0, rec.adjust});
  tasks[3].push_back({0, "minor/evacuate", 0, rec.compact});
  tasks[4].push_back({0, "minor/drain", 0, rec.other});
  PublishCycleTelemetry(rec, tasks);

  ++minor_collections_;
  promoted_bytes_ += stats.promoted_bytes;
  premature_tenures_ += stats.premature_tenured;
  last_minor_ = stats;
  collecting_ = false;
  if (config_.verify_remset) VerifyRememberedSetAgainstHeap(jvm);
  return true;
}

bool GenerationalCollector::Escalate(rt::Jvm& jvm,
                                     const MinorCycleStats& stats) {
  PressureGovernor::Sample sample;
  const std::uint64_t extent =
      young_ != nullptr && young_->attached() ? young_->extent_bytes() : 0;
  const std::uint64_t old_capacity = jvm.heap().capacity() - extent;
  const std::uint64_t old_used = jvm.heap().used() - extent;
  sample.old_occupancy =
      static_cast<double>(old_used) / static_cast<double>(old_capacity);
  sample.promoted_bytes = stats.promoted_bytes;
  sample.young_extent_bytes = extent;
  if (const sim::FarTier* far = jvm.address_space().far_tier()) {
    sample.far_resident_pages = far->resident_pages();
    sample.far_resident_limit = far->resident_limit();
  }
  return governor_.ShouldEscalate(sample);
}

// --- full collection / phase engine -----------------------------------------

void GenerationalCollector::AbandonYoungForFullGc() {
  if (young_ != nullptr && young_->attached()) young_->Abandon();
  remset_.clear();
  for (auto& buf : ssb_) buf.clear();
  ages_.clear();
  young_starved_ = false;
}

void GenerationalCollector::Collect(rt::Jvm& jvm) {
  if (inner_->cycle_active()) {
    // Allocation failure while a stepped cycle is open (arbiter-driven):
    // finishing the in-flight cycle IS the requested collection.
    FinishCycle();
    return;
  }
  BeginCycle(jvm);
  FinishCycle();
}

void GenerationalCollector::BeginCycle(rt::Jvm& jvm) {
  SVAGC_CHECK(!inner_->cycle_active());
  collecting_ = true;
  AbandonYoungForFullGc();
  cycle_jvm_ = &jvm;
  inner_->BeginCycle(jvm);
}

void GenerationalCollector::StepPhase() {
  inner_->StepPhase();
  if (!inner_->cycle_active()) MirrorFinishedInnerCycle();
}

void GenerationalCollector::MirrorFinishedInnerCycle() {
  // The harness reads pauses from the *outer* collector's GcLog, so every
  // finished inner cycle is replayed into it here. Event totals need no
  // replay: both collectors publish into the inner collector's registry.
  const rt::GcLog& il = inner_->log();
  SVAGC_CHECK(il.cycles.size() > inner_cycles_seen_);
  for (; inner_cycles_seen_ < il.cycles.size(); ++inner_cycles_seen_) {
    const rt::GcCycleRecord& rec = il.cycles[inner_cycles_seen_];
    log_.Record(rec);
    PublishCycleTelemetry(rec, gc::CycleTasks{});
    ++full_collections_;
  }
  governor_.NoteFullGc();
  cycle_jvm_ = nullptr;
  collecting_ = false;
}

// --- test oracle ------------------------------------------------------------

void GenerationalCollector::VerifyRememberedSetAgainstHeap(rt::Jvm& jvm) {
  if (young_ == nullptr || !young_->attached()) return;
  jvm.RetireAllTlabs();  // the walk needs a parsable heap
  std::unordered_set<rt::vaddr_t> covered = remset_;
  for (const auto& buf : ssb_) covered.insert(buf.begin(), buf.end());
  jvm.heap().ForEachObject([&](rt::vaddr_t addr, std::uint64_t /*size*/) {
    if (young_->Contains(addr)) return;
    rt::ObjectView view = jvm.View(addr);
    const std::uint32_t num_refs = view.num_refs();
    for (std::uint32_t i = 0; i < num_refs; ++i) {
      const rt::vaddr_t target = view.ref(i);
      if (target != 0 && young_->Contains(target)) {
        SVAGC_CHECK(covered.count(SlotAddr(addr, i)) != 0);
      }
    }
  });
}

}  // namespace svagc::core
