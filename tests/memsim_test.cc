// Tests for the trace-driven cache and DTLB simulators behind Table III.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "memsim/hierarchy.h"
#include "support/align.h"
#include "support/rng.h"
#include "tests/memsim_reference.h"
#include "workloads/runner.h"

namespace svagc::memsim {
namespace {

TEST(Cache, SequentialFitResidency) {
  Cache cache(CacheConfig{4096, 4, 64});
  // First pass: all misses; second pass over the same 4 KiB: all hits.
  for (std::uint64_t a = 0; a < 4096; a += 64) cache.Access(a);
  EXPECT_EQ(cache.misses(), 64u);
  EXPECT_EQ(cache.hits(), 0u);
  for (std::uint64_t a = 0; a < 4096; a += 64) cache.Access(a);
  EXPECT_EQ(cache.hits(), 64u);
}

TEST(Cache, StreamLargerThanCacheThrashes) {
  Cache cache(CacheConfig{4096, 4, 64});
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64) cache.Access(a);
  }
  EXPECT_GT(cache.MissRatePercent(), 99.0);
}

TEST(Cache, LruKeepsHotLineWithinSet) {
  // Direct test of LRU: 1 set of 2 ways, three conflicting blocks.
  Cache cache(CacheConfig{128, 2, 64});
  cache.Access(0);        // block A
  cache.Access(128);      // block B (same set: 2 sets? size 128/64=2 lines,
                          // 2 ways -> 1 set)
  cache.Access(0);        // refresh A
  cache.Access(256);      // block C evicts LRU = B
  cache.ResetCounters();
  cache.Access(0);
  EXPECT_EQ(cache.hits(), 1u);
  cache.Access(128);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, SameLineAccessesCoalesce) {
  Cache cache(CacheConfig{4096, 4, 64});
  cache.Access(0);
  cache.Access(8);
  cache.Access(63);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(Dtlb, RangeCountsWordLoadsButProbesPages) {
  DtlbSim dtlb(4, 4, 16, 4);
  dtlb.AccessRange(0, 4 * sim::kPageSize);
  EXPECT_EQ(dtlb.accesses(), 4 * sim::kPageSize / 8);
  EXPECT_EQ(dtlb.l1_misses(), 4u);  // one per page, cold
  dtlb.AccessRange(0, 4 * sim::kPageSize);
  EXPECT_EQ(dtlb.l1_misses(), 4u);  // warm now
}

TEST(Dtlb, ThrashesBeyondReach) {
  DtlbSim dtlb(4, 4, 8, 4);  // reach: 8 pages via STLB
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t p = 0; p < 64; ++p) {
      dtlb.Access(p << sim::kPageShift);
    }
  }
  EXPECT_GT(dtlb.MissRatePercent(), 99.0);
  EXPECT_GT(dtlb.stlb_misses(), 0u);
}

TEST(Dtlb, StlbCatchesL1Evictions) {
  DtlbSim dtlb(2, 2, 64, 4);
  for (std::uint64_t p = 0; p < 8; ++p) dtlb.Access(p << sim::kPageShift);
  const auto stlb_cold = dtlb.stlb_misses();
  dtlb.ResetCounters();
  for (std::uint64_t p = 0; p < 8; ++p) dtlb.Access(p << sim::kPageShift);
  EXPECT_GT(dtlb.l1_misses(), 0u);       // L1 too small
  EXPECT_EQ(dtlb.stlb_misses(), 0u);     // but the STLB holds all 8
  EXPECT_GT(stlb_cold, 0u);
}

TEST(Hierarchy, ExpandsRangesToLines) {
  MemoryHierarchy hierarchy;
  hierarchy.OnAccess(0, 64 * 10, /*is_write=*/false);
  EXPECT_EQ(hierarchy.l1().accesses(), 10u);
}

TEST(Hierarchy, LowerLevelsSeeOnlyMisses) {
  MemoryHierarchy hierarchy;
  hierarchy.OnAccess(0, 4096, false);
  hierarchy.OnAccess(0, 4096, false);  // L1-resident now
  EXPECT_EQ(hierarchy.l2().accesses(), 64u);   // only the cold pass
  EXPECT_EQ(hierarchy.llc().accesses(), 64u);
}

TEST(Hierarchy, ScaledConfigPreservesRatios) {
  const HierarchyConfig scaled = HierarchyConfig::ScaledForSmallHeaps();
  EXPECT_LT(scaled.llc.size_bytes, HierarchyConfig{}.llc.size_bytes);
  EXPECT_LT(scaled.l1.size_bytes, scaled.l2.size_bytes);
  EXPECT_LT(scaled.l2.size_bytes, scaled.llc.size_bytes);
  EXPECT_LT(scaled.dtlb_entries, scaled.stlb_entries);
}

TEST(Hierarchy, ZeroSizeAccessIsSafe) {
  MemoryHierarchy hierarchy;
  hierarchy.OnAccess(1234, 0, true);
  EXPECT_EQ(hierarchy.l1().accesses(), 1u);  // degenerate single-line probe
}

TEST(MemsimDeathTest, RejectsUnsupportedGeometry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Three sets, three DTLB sets, more ways than a row scan's 64-bit masks
  // hold, and levels with different line sizes.
  ASSERT_DEATH(Cache(CacheConfig{3 * 4 * 64, 4, 64}), "CHECK failed");
  ASSERT_DEATH(Cache(CacheConfig{65 * 64, 65, 64}), "CHECK failed");
  ASSERT_DEATH(DtlbSim(12, 4, 64, 4), "CHECK failed");
  HierarchyConfig mixed_lines;
  mixed_lines.l2.line_bytes = 128;
  ASSERT_DEATH(MemoryHierarchy{mixed_lines}, "CHECK failed");
}

TEST(Cache, AccessDistinctSkipsOnlyGuaranteedMisses) {
  // 2 sets x 2 ways. Lines 0 and 1 are resident; a distinct run of 8 lines
  // starting at 0 hits both, then every later line misses.
  Cache cache(CacheConfig{4 * 64, 2, 64});
  cache.AccessLine(0);
  cache.AccessLine(1);
  cache.ResetCounters();
  std::vector<LineRun> misses;
  cache.AccessDistinct({{0, 8}}, &misses);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 6u);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].begin, 2u);
  EXPECT_EQ(misses[0].end, 8u);
  // The run leaves each set holding its last two lines, 4..7.
  cache.ResetCounters();
  cache.AccessDistinct({{4, 8}}, nullptr);
  EXPECT_EQ(cache.hits(), 4u);
}

using Spans = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Spans SpansOf(const std::vector<LineRun>& runs) {
  Spans spans;
  for (const LineRun& run : runs) spans.emplace_back(run.begin, run.end);
  return spans;
}

// AccessLine() on every line of `runs`, returning the missed lines merged
// into runs: what AccessDistinct must reproduce.
Spans ProbeEachLine(Cache& cache, const std::vector<LineRun>& runs) {
  Spans missed;
  for (const LineRun& run : runs) {
    for (std::uint64_t line = run.begin; line < run.end; ++line) {
      if (cache.AccessLine(line)) continue;
      if (!missed.empty() && missed.back().second == line) {
        ++missed.back().second;
      } else {
        missed.emplace_back(line, line + 1);
      }
    }
  }
  return missed;
}

// One to four ascending runs from `line` on, separated by holes of up to
// two sets' lines (sometimes none). A run is k x sets +- 1 lines long for
// k = 1 ... 2 x ways + 1, or longer than sets x ways: up to 72 keys more
// than its ways per set, so key indices pass the scan's 64-bit masks.
std::vector<LineRun> RandomRuns(Rng& rng, std::uint64_t sets, unsigned ways,
                                std::uint64_t line) {
  std::vector<LineRun> runs(rng.NextInRange(1, 4));
  for (LineRun& run : runs) {
    std::uint64_t length = sets * ways + rng.NextInRange(1, 72 * sets);
    if (rng.NextBelow(4) != 0) {
      length = rng.NextInRange(1, 2 * ways + 1) * sets + rng.NextBelow(3);
      length = std::max<std::uint64_t>(length - 1, 1);
    }
    run = {line, line + length};
    line = run.end + rng.NextBelow(2 * sets + 1);
  }
  return runs;
}

// AccessDistinct against AccessLine() on a twin cache, over every way count
// the scan's masks allow up to 64 and set counts from 1 to 64: the same
// hits, misses and miss runs after every call, and the same rows, which
// single-line probes on both caches compare (each probe's outcome depends
// on the row order it meets, and any divergence carries into later calls).
TEST(Cache, AccessDistinctMatchesLineProbes) {
  for (const unsigned ways : {1u, 2u, 3u, 4u, 8u, 11u, 12u, 16u, 64u}) {
    for (const std::uint64_t sets : {1u, 2u, 4u, 16u, 64u}) {
      SCOPED_TRACE(testing::Message() << sets << " sets x " << ways << " ways");
      const CacheConfig config{sets * ways * 64, ways, 64};
      Cache distinct(config);
      Cache lines(config);
      Rng rng(sets * 100 + ways);
      // Calls start anywhere in a window a few caches wide, so they find
      // the lines of earlier calls and probes at every depth.
      const std::uint64_t base = 1ULL << 20;
      const std::uint64_t window = 3 * sets * (ways + 8);
      std::vector<LineRun> runs;
      for (int call = 0; call < 40; ++call) {
        runs = RandomRuns(rng, sets, ways, base + rng.NextBelow(window));
        const Spans want = ProbeEachLine(lines, runs);
        if (rng.NextBelow(4) == 0) {
          distinct.AccessDistinct(runs, nullptr);  // as the LLC calls it
        } else {
          std::vector<LineRun> got;
          distinct.AccessDistinct(runs, &got);
          ASSERT_EQ(SpansOf(got), want) << "call " << call;
        }
        ASSERT_EQ(distinct.hits(), lines.hits()) << "call " << call;
        ASSERT_EQ(distinct.misses(), lines.misses()) << "call " << call;
        // Single lines from the call's span and just around it.
        const std::uint64_t lo = runs.front().begin - sets;
        const std::uint64_t span = runs.back().end + sets - lo;
        for (int probe = 0; probe < 8; ++probe) {
          const std::uint64_t line = lo + rng.NextBelow(span);
          ASSERT_EQ(distinct.AccessLine(line), lines.AccessLine(line))
              << "call " << call << ", probe of line " << line;
        }
      }
      // The last call's rows in full: a new key pushes each set's LRU tag
      // out, then the call's lines are probed from the top down.
      for (std::uint64_t set = 0; set < sets; ++set) {
        ASSERT_EQ(distinct.AccessLine(set), lines.AccessLine(set));
      }
      for (std::uint64_t line = runs.back().end; line-- > runs.front().begin;) {
        ASSERT_EQ(distinct.AccessLine(line), lines.AccessLine(line))
            << "final probe of line " << line;
      }
    }
  }
}

// Every counter of a hierarchy, the production one or the reference.
struct Counts {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t dtlb_accesses = 0;
  std::uint64_t dtlb_l1_misses = 0;
  std::uint64_t dtlb_stlb_misses = 0;

  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  os << "L1 " << c.l1_hits << "/" << c.l1_misses;
  os << ", L2 " << c.l2_hits << "/" << c.l2_misses;
  os << ", LLC " << c.llc_hits << "/" << c.llc_misses;
  os << ", DTLB " << c.dtlb_accesses << "/" << c.dtlb_l1_misses;
  return os << "/" << c.dtlb_stlb_misses;
}

template <typename AnyHierarchy>
Counts CountsOf(AnyHierarchy& hierarchy) {
  Counts c;
  c.l1_hits = hierarchy.l1().hits();
  c.l1_misses = hierarchy.l1().misses();
  c.l2_hits = hierarchy.l2().hits();
  c.l2_misses = hierarchy.l2().misses();
  c.llc_hits = hierarchy.llc().hits();
  c.llc_misses = hierarchy.llc().misses();
  c.dtlb_accesses = hierarchy.dtlb().accesses();
  c.dtlb_l1_misses = hierarchy.dtlb().l1_misses();
  c.dtlb_stlb_misses = hierarchy.dtlb().stlb_misses();
  return c;
}

// ---------------------------------------------------------------------------
// Differential exactness: the production hierarchy against the per-line
// reference model (tests/memsim_reference.h), counter for counter after
// every call of a randomized trace.

// Replays `calls` random accesses through both models. The trace covers
// empty, sub-line and line-straddling accesses; accesses of exactly
// sets x ways lines of each level (and one line either side); 1-5x the L2
// span; repeated and overlapping ranges; and single-word probes straight
// into one cache level or the DTLB, interleaved with the rest.
void RunDifferential(const HierarchyConfig& config, std::uint64_t seed,
                     int calls) {
  reference::Hierarchy ref(config);
  MemoryHierarchy got(config);
  const std::uint64_t line = config.l1.line_bytes;
  const std::uint64_t base = 1ULL << 32;
  // Four LLCs' worth of address space: long accesses evict, short ones
  // find the lines earlier ones left behind.
  const std::uint64_t region = 4 * config.llc.size_bytes;
  // The middle half of the region is 2 MiB-mapped, so page-granular and
  // huge-unit DTLB keys both occur, and ranges cross between them.
  ref.SetHugeSpan(base + region / 4, base + 3 * region / 4);
  got.SetHugeSpan(base + region / 4, base + 3 * region / 4);
  const std::uint64_t spans[] = {config.l1.size_bytes / line,
                                 config.l2.size_bytes / line,
                                 config.llc.size_bytes / line};

  Rng rng(seed);
  std::uint64_t prev_vaddr = base;
  std::uint64_t prev_size = 0;
  for (int i = 0; i < calls; ++i) {
    std::uint64_t vaddr = base + rng.NextBelow(region);
    std::uint64_t size = 0;
    std::string what;
    switch (rng.NextBelow(10)) {
      case 0:
        what = "empty";
        break;
      case 1:
        what = "sub-line";
        vaddr = AlignDown(vaddr, line) + rng.NextBelow(line);
        size = rng.NextInRange(1, line - 1);
        break;
      case 2:
        what = "straddling";
        vaddr = AlignDown(vaddr, line) + line - rng.NextInRange(1, 8);
        size = rng.NextInRange(2, 16);
        break;
      case 3:
        what = "sets x ways of a level";
        vaddr = AlignDown(vaddr, line);
        size = (spans[rng.NextBelow(3)] + rng.NextInRange(0, 2) - 1) * line;
        if (rng.NextBelow(2) == 0) vaddr += rng.NextBelow(line);
        break;
      case 4:
        what = "1-5x the L2 span";
        size = rng.NextInRange(spans[1], 5 * spans[1]) * line;
        size += rng.NextBelow(line);
        break;
      case 5:
        what = "repeat";
        vaddr = prev_vaddr;
        size = prev_size;
        break;
      case 6:
        what = "overlap";
        vaddr = prev_vaddr + rng.NextBelow(prev_size + 1);
        vaddr -= std::min(vaddr - base, rng.NextBelow(prev_size / 2 + 1));
        size = rng.NextInRange(1, std::max<std::uint64_t>(prev_size, 1));
        break;
      case 7: {
        // A word inside or just past the previous access, straight into one
        // level: it sees whatever state that access left behind.
        what = "single-word cache probe";
        const std::uint64_t word =
            prev_vaddr + rng.NextBelow(prev_size + 4 * line);
        switch (rng.NextBelow(3)) {
          case 0:
            ref.l1().Access(word);
            got.l1().Access(word);
            break;
          case 1:
            ref.l2().Access(word);
            got.l2().Access(word);
            break;
          default:
            ref.llc().Access(word);
            got.llc().Access(word);
            break;
        }
        ASSERT_EQ(CountsOf(got), CountsOf(ref)) << "call " << i << ": " << what;
        continue;
      }
      case 8:
        what = "single-word DTLB probe";
        ref.dtlb().Access(vaddr);
        got.dtlb().Access(vaddr);
        ASSERT_EQ(CountsOf(got), CountsOf(ref)) << "call " << i << ": " << what;
        continue;
      default:
        what = "random";
        size = rng.NextBelow(3 * spans[0] * line);
        break;
    }
    ref.OnAccess(vaddr, static_cast<std::uint32_t>(size));
    got.OnAccess(vaddr, static_cast<std::uint32_t>(size),
                 /*is_write=*/rng.NextBelow(2) == 1);
    what += ", " + std::to_string(size) + " bytes at " + std::to_string(vaddr);
    ASSERT_EQ(CountsOf(got), CountsOf(ref)) << "call " << i << ": " << what;
    prev_vaddr = vaddr;
    prev_size = size;
  }
}

class MemsimDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(MemsimDifferential, MatchesReferenceModel) {
  const unsigned ways = GetParam();
  // Power-of-two set counts at every level, a different count per level.
  HierarchyConfig config;
  config.l1 = {16ULL * ways * 64, ways, 64};
  config.l2 = {64ULL * ways * 64, ways, 64};
  config.llc = {256ULL * ways * 64, ways, 64};
  config.dtlb_entries = 4 * ways;
  config.dtlb_ways = ways;
  config.stlb_entries = 16 * ways;
  config.stlb_ways = ways;
  RunDifferential(config, /*seed=*/ways, /*calls=*/600);
}

INSTANTIATE_TEST_SUITE_P(Ways, MemsimDifferential,
                         ::testing::Values(1u, 2u, 4u, 8u, 11u, 12u, 16u));

TEST(MemsimDifferentialPresets, ScaledForSmallHeaps) {
  const HierarchyConfig config = HierarchyConfig::ScaledForSmallHeaps();
  RunDifferential(config, /*seed=*/97, /*calls=*/600);
}

TEST(MemsimDifferentialPresets, Default) {
  // Full-size: 32768-set 11-way LLC; a sets x ways access is 22 MiB.
  RunDifferential(HierarchyConfig{}, /*seed=*/7, /*calls=*/120);
}

// ---------------------------------------------------------------------------
// Golden counts: exact counters of two deterministic traced runs. Any change
// to the model, or to the traffic the runtime feeds it, fails here instead
// of moving Table III inside a tolerance.

using workloads::CollectorKind;

Counts TracedRunCounts(const char* workload, CollectorKind collector,
                       unsigned gc_threads) {
  MemoryHierarchy hierarchy(HierarchyConfig::ScaledForSmallHeaps());
  workloads::RunConfig config;
  config.workload = workload;
  config.collector = collector;
  config.iterations = 3;
  config.gc_threads = gc_threads;
  config.trace = &hierarchy;
  (void)workloads::RunWorkload(config);
  return CountsOf(hierarchy);
}

TEST(MemsimGolden, PagerankSvagc) {
  const Counts c = TracedRunCounts("pagerank", CollectorKind::kSvagc, 1);
  EXPECT_EQ(c.l1_hits, 0u);
  EXPECT_EQ(c.l1_misses, 1225168u);
  EXPECT_EQ(c.l2_hits, 46368u);
  EXPECT_EQ(c.l2_misses, 1178800u);
  EXPECT_EQ(c.llc_hits, 979965u);
  EXPECT_EQ(c.llc_misses, 198835u);
  EXPECT_EQ(c.dtlb_accesses, 9797834u);
  EXPECT_EQ(c.dtlb_l1_misses, 19043u);
  EXPECT_EQ(c.dtlb_stlb_misses, 18813u);
}

TEST(MemsimGolden, SparseLargeMemmove) {
  // One GC thread: a shared hierarchy models one serialized stream, and
  // with more threads the probe order follows host scheduling.
  const Counts c =
      TracedRunCounts("sparse.large", CollectorKind::kSvagcNoSwap, 1);
  EXPECT_EQ(c.l1_hits, 0u);
  EXPECT_EQ(c.l1_misses, 2556488u);
  EXPECT_EQ(c.l2_hits, 36912u);
  EXPECT_EQ(c.l2_misses, 2519576u);
  EXPECT_EQ(c.llc_hits, 1048656u);
  EXPECT_EQ(c.llc_misses, 1470920u);
  EXPECT_EQ(c.dtlb_accesses, 20440273u);
  EXPECT_EQ(c.dtlb_l1_misses, 41368u);
  EXPECT_EQ(c.dtlb_stlb_misses, 40302u);
}

// Four GC workers feed one hierarchy concurrently (under TSan this checks
// the lock around the tag rows and scratch runs). The interleaving changes
// which lines hit, but not how many lines and loads arrive, and each level
// still sees exactly the misses of the one above.
TEST(Hierarchy, SharedByFourGcThreads) {
  const Counts c =
      TracedRunCounts("sparse.large", CollectorKind::kSvagcNoSwap, 4);
  EXPECT_EQ(c.l1_hits + c.l1_misses, 2556488u);
  EXPECT_EQ(c.l2_hits + c.l2_misses, c.l1_misses);
  EXPECT_EQ(c.llc_hits + c.llc_misses, c.l2_misses);
  EXPECT_EQ(c.dtlb_accesses, 20440273u);
}

}  // namespace
}  // namespace svagc::memsim
