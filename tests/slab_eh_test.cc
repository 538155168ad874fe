// Differential tests for the slab-arena exponential histogram: bit-identity
// against ExponentialHistogram over randomized weighted add/expire/query
// interleavings, invariance of estimates under extra wheel-driven Expire
// calls (the property the keyed store's expiry wheel relies on), and slab
// recycling / shrinking behaviour.

#include "src/window/slab_eh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "src/util/random.h"
#include "src/window/exponential_histogram.h"

namespace ecm {
namespace {

struct ParamCase {
  double epsilon;
  uint64_t window_len;
};

void ExpectSameBuckets(const SlabEhPool& pool, const SlabEhState& s,
                       const ExponentialHistogram& eh) {
  std::vector<BucketView> a = pool.Buckets(s);
  std::vector<BucketView> b = eh.Buckets();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << "bucket " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "bucket " << i;
    EXPECT_EQ(a[i].size, b[i].size) << "bucket " << i;
  }
}

// Mirrored random ops on both implementations; every observable compared,
// estimates with EXPECT_EQ (bit-identity, not tolerance).
TEST(SlabEhTest, DifferentialBitIdentity) {
  const ParamCase cases[] = {
      {1.0, 64},      {0.5, 1},        {0.5, 1000},
      {0.1, 100},     {0.1, 1 << 20},  {0.02, 5000},
      {0.002, 4096},  // near the kMaxLevelCapacity bound
  };
  for (const ParamCase& pc : cases) {
    SCOPED_TRACE(testing::Message()
                 << "epsilon=" << pc.epsilon << " window=" << pc.window_len);
    SlabEhPool pool(pc.epsilon, pc.window_len);
    SlabEhState s;
    ExponentialHistogram eh({pc.epsilon, pc.window_len});
    ASSERT_EQ(pool.level_capacity(),
              static_cast<size_t>(std::ceil(1.0 / pc.epsilon)) + 2);

    Rng rng(0xABCD0001 + static_cast<uint64_t>(pc.window_len));
    Timestamp ts = 0;
    for (int op = 0; op < 4000; ++op) {
      const uint64_t what = rng.Uniform(100);
      if (what < 70) {
        // Weighted add; occasional huge counts drive the closed-form path
        // through many levels.
        ts += rng.Uniform(std::max<uint64_t>(pc.window_len / 16, 2));
        uint64_t count = 1;
        const uint64_t shape = rng.Uniform(10);
        if (shape >= 7) count = 1 + rng.Uniform(50);
        if (shape == 9) count = 1 + rng.Uniform(1u << 20);
        pool.Add(&s, ts, count);
        eh.Add(ts, count);
      } else if (what < 80) {
        const Timestamp now = ts + rng.Uniform(pc.window_len + 2);
        pool.Expire(&s, now);
        eh.Expire(now);
        ts = std::max(ts, now);
      } else {
        const Timestamp now = ts + rng.Uniform(pc.window_len / 4 + 2);
        const uint64_t range = 1 + rng.Uniform(pc.window_len + pc.window_len / 2);
        EXPECT_EQ(pool.Estimate(s, now, range), eh.Estimate(now, range))
            << "op " << op << " now=" << now << " range=" << range;
        EXPECT_EQ(pool.NextEstimateChangeAt(s, now, range),
                  eh.NextEstimateChangeAt(now, range))
            << "op " << op << " now=" << now << " range=" << range;
      }
      EXPECT_EQ(pool.BucketTotal(s), eh.BucketTotal());
      EXPECT_EQ(pool.NumBuckets(s), eh.NumBuckets());
      if (op % 257 == 0) ExpectSameBuckets(pool, s, eh);
    }
    ExpectSameBuckets(pool, s, eh);
    pool.Release(&s);
    EXPECT_EQ(pool.arena().LiveBlocks(), 0u);
  }
}

// The expiry wheel calls Expire at times of its own choosing between adds;
// every query issued before the next add must be unaffected by the firing
// (bit-identical to a reference that did not expire). The next add's merge
// cascade, however, legitimately depends on which stale buckets are still
// present (the reference expires them after cascading, the wheel before),
// so the reference is re-synced with a mirrored Expire before each add —
// which is exactly how the keyed store's differential oracle mirrors wheel
// firings via the eviction observer.
TEST(SlabEhTest, EstimateInvariantUnderWheelExpiry) {
  const ParamCase cases[] = {{0.5, 128}, {0.1, 1024}, {0.02, 1 << 16}};
  for (const ParamCase& pc : cases) {
    SCOPED_TRACE(testing::Message()
                 << "epsilon=" << pc.epsilon << " window=" << pc.window_len);
    SlabEhPool pool(pc.epsilon, pc.window_len);
    SlabEhState s;
    ExponentialHistogram eh({pc.epsilon, pc.window_len});

    Rng rng(0xFEED0002);
    Timestamp ts = 0;
    // Last slab-only wheel firing not yet mirrored into the reference.
    Timestamp pending_sync = 0;
    for (int op = 0; op < 3000; ++op) {
      const uint64_t what = rng.Uniform(10);
      if (what < 6) {
        if (pending_sync > 0) {
          eh.Expire(pending_sync);
          pending_sync = 0;
        }
        ts += rng.Uniform(pc.window_len / 8 + 2);
        const uint64_t count = 1 + (rng.Uniform(4) == 0 ? rng.Uniform(999) : 0);
        pool.Add(&s, ts, count);
        eh.Add(ts, count);
      } else if (what < 8) {
        // Wheel fires on the slab side only; the clock advances with it.
        ts += rng.Uniform(pc.window_len / 2 + 2);
        pool.Expire(&s, ts);
        pending_sync = ts;
      } else {
        // Queries between the firing and the next add see no difference.
        const Timestamp now = ts + rng.Uniform(pc.window_len);
        const uint64_t range = 1 + rng.Uniform(pc.window_len);
        EXPECT_EQ(pool.Estimate(s, now, range), eh.Estimate(now, range))
            << "op " << op << " now=" << now << " range=" << range;
      }
    }
  }
}

TEST(SlabEhTest, EmptyStateBehaves) {
  SlabEhPool pool(0.1, 100);
  SlabEhState s;
  EXPECT_EQ(pool.Estimate(s, 50, 100), 0.0);
  EXPECT_EQ(pool.NextEstimateChangeAt(s, 50, 100), 0u);
  EXPECT_EQ(pool.NumBuckets(s), 0u);
  EXPECT_EQ(pool.BucketTotal(s), 0u);
  pool.Expire(&s, 1000);   // no-op
  pool.Release(&s);        // no-op
  EXPECT_EQ(pool.arena().LiveBlocks(), 0u);
}

// Admission/eviction churn must recycle blocks: after the first round the
// arena stops carving pages no matter how many evict/readmit cycles run.
TEST(SlabEhTest, ArenaRecyclesFreedBlocks) {
  SlabEhPool pool(0.1, 1 << 20);
  constexpr int kKeys = 512;
  std::vector<SlabEhState> states(kKeys);
  Timestamp ts = 1;
  size_t pages_after_first = 0;
  for (int round = 0; round < 8; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      for (int i = 0; i < 40; ++i) pool.Add(&states[k], ts += 1);
    }
    if (round == 0) {
      pages_after_first = pool.arena().NumPages();
      ASSERT_GT(pages_after_first, 0u);
    } else {
      EXPECT_EQ(pool.arena().NumPages(), pages_after_first)
          << "arena carved new pages despite free blocks, round " << round;
    }
    for (int k = 0; k < kKeys; ++k) pool.Release(&states[k]);
    EXPECT_EQ(pool.arena().LiveBlocks(), 0u);
  }
}

// Distinct per-(handle, generation, slot) fill word, so an overlapping or
// stale block shows up as a mismatched word.
uint64_t FillWord(uint32_t handle, uint32_t gen, uint32_t slot) {
  return (uint64_t{handle} << 32) ^ (uint64_t{gen} << 20) ^ slot ^
         0x9E3779B97F4A7C15ULL;
}

// A class's pages double from kFirstPageSlots to kPageSlots and then stay
// at the cap. Allocating block by block through every step, the page
// count must tick exactly where the rule says, and blocks handed out
// across all page sizes (several classes interleaved, with frees and
// reallocations) must never overlap or overwrite each other.
TEST(SlabEhTest, ArenaPagesGrowPerClassWithoutOverlap) {
  // Small classes cross all six doublings; 96 and 192 slots exercise the
  // round-down to whole blocks and the one-block minimum; 12288 is larger
  // than the 64 KiB cap.
  const uint8_t classes[] = {
      SlabArena::ClassFor(2),  SlabArena::ClassFor(3),
      SlabArena::ClassFor(12), SlabArena::ClassFor(96),
      SlabArena::ClassFor(192), SlabArena::ClassFor(12288)};
  SlabArena arena;
  struct Live {
    uint32_t handle;
    uint8_t cls;
    uint32_t gen;
  };
  std::vector<Live> live;
  size_t expected_pages = 0;
  uint32_t gen = 0;
  auto allocate = [&](uint8_t cls) {
    const uint32_t handle = arena.Allocate(cls);
    const uint32_t n = SlabArena::ClassSlots(cls);
    uint64_t* slots = arena.Slots(handle);
    for (uint32_t i = 0; i < n; ++i) slots[i] = FillWord(handle, gen, i);
    live.push_back({handle, cls, gen++});
  };
  // Fill each class's pages through every doubling and one capped page:
  // page p holds min(1 KiB << p, 64 KiB) worth of whole blocks, at least
  // one. The page count must tick on exactly the first block of each.
  for (const uint8_t cls : classes) {
    const uint32_t b = SlabArena::ClassSlots(cls);
    for (uint32_t page = 0; page <= SlabArena::kPageDoublings + 1; ++page) {
      const uint32_t target =
          std::min(SlabArena::kFirstPageSlots << page, SlabArena::kPageSlots);
      const uint32_t blocks = std::max(target / b, 1u);
      for (uint32_t blk = 0; blk < blocks; ++blk) {
        allocate(cls);
        if (blk == 0) ++expected_pages;
        ASSERT_EQ(arena.NumPages(), expected_pages)
            << "class " << b << " page " << page << " block " << blk;
      }
    }
  }
  ASSERT_EQ(arena.NumPages(),
            std::size(classes) * (SlabArena::kPageDoublings + 2));

  // Churn: free every third block and reallocate as many of each class,
  // interleaving the classes (recycled blocks only, so no new page); then
  // free every fifth block and carve past the capped pages.
  auto free_where = [&](uint32_t every) {
    std::vector<uint32_t> freed(SlabArena::kNumClasses, 0);
    std::vector<Live> kept;
    for (size_t i = 0; i < live.size(); ++i) {
      if (i % every == 0) {
        arena.Free(live[i].handle, live[i].cls);
        ++freed[live[i].cls];
      } else {
        kept.push_back(live[i]);
      }
    }
    live.swap(kept);
    return freed;
  };
  std::vector<uint32_t> freed = free_where(3);
  for (bool any = true; any;) {
    any = false;
    for (const uint8_t cls : classes) {
      if (freed[cls] == 0) continue;
      --freed[cls];
      allocate(cls);
      any = true;
    }
  }
  EXPECT_EQ(arena.NumPages(), expected_pages);
  free_where(5);
  for (const uint8_t cls : classes) {
    for (uint32_t i = 0; i < 2 * SlabArena::kPageSlots /
                                 SlabArena::ClassSlots(cls) + 1;
         ++i) {
      allocate(cls);
    }
  }
  EXPECT_GT(arena.NumPages(), expected_pages);

  // Every live block still holds its own fill pattern...
  for (const Live& l : live) {
    const uint64_t* slots = arena.Slots(l.handle);
    for (uint32_t i = 0; i < SlabArena::ClassSlots(l.cls); ++i) {
      ASSERT_EQ(slots[i], FillWord(l.handle, l.gen, i))
          << "block " << l.handle << " slot " << i << " was overwritten";
    }
  }
  // ...and no two live blocks share an address range.
  std::vector<std::pair<const uint64_t*, const uint64_t*>> ranges;
  for (const Live& l : live) {
    const uint64_t* p = arena.Slots(l.handle);
    ranges.emplace_back(p, p + SlabArena::ClassSlots(l.cls));
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    ASSERT_LE(ranges[i - 1].second, ranges[i].first) << "blocks overlap";
  }
  EXPECT_EQ(arena.LiveBlocks(), live.size());
}

// A pool of a few hundred keys spread over many size classes holds only a
// small multiple of its live block bytes: each class's first pages are
// small. (Under a flat 64 KiB page per class this pool holds ~5x.)
TEST(SlabEhTest, SmallPoolMemoryTracksLiveSlots) {
  SlabEhPool pool(0.1, 1ULL << 40);
  constexpr int kKeys = 300;
  std::vector<SlabEhState> states(kKeys);
  Timestamp ts = 1;
  // Varied arrival counts (1 to 1201 per key) give the keys widely
  // different bucket counts, which spreads them over many size classes.
  for (int k = 0; k < kKeys; ++k) {
    const int arrivals = 1 + (k * k * 7919) % 1201;
    for (int i = 0; i < arrivals; ++i) pool.Add(&states[k], ts += 1);
  }
  size_t live_bytes = 0;
  std::vector<bool> used(SlabArena::kNumClasses, false);
  for (const SlabEhState& s : states) {
    ASSERT_NE(s.block, SlabArena::kNullBlock);
    live_bytes += SlabArena::ClassSlots(s.cls) * sizeof(uint64_t);
    used[s.cls] = true;
  }
  const size_t classes_used = std::count(used.begin(), used.end(), true);
  ASSERT_GE(classes_used, 8u);
  const size_t arena_bytes = pool.arena().MemoryBytes();
  EXPECT_LE(arena_bytes, 2 * live_bytes)
      << classes_used << " classes, " << pool.arena().NumPages()
      << " pages, " << live_bytes << " live block bytes";
}

// A key that grew a large block and then cooled must hand the block back:
// expiry shrinks the block class once occupancy drops to a quarter.
TEST(SlabEhTest, ExpiryShrinksCooledBlocks) {
  SlabEhPool pool(0.01, 1 << 24);
  SlabEhState s;
  Timestamp ts = 1;
  for (int i = 0; i < 20000; ++i) pool.Add(&s, ts += 8);
  const size_t hot_buckets = pool.NumBuckets(s);
  ASSERT_GT(hot_buckets, 200u);
  // Let almost everything expire, keeping only the most recent content.
  pool.Add(&s, ts += 1);
  pool.Expire(&s, ts + (1 << 24) - 64);
  ASSERT_GT(pool.NumBuckets(s), 0u);
  ASSERT_LT(pool.NumBuckets(s), 32u);
  EXPECT_LE(SlabArena::ClassSlots(s.cls), 128u)
      << "cooled key kept an oversized slab block";
  // Full expiry frees the block entirely.
  pool.Expire(&s, ts + (1ULL << 25));
  EXPECT_EQ(pool.NumBuckets(s), 0u);
  EXPECT_EQ(s.block, SlabArena::kNullBlock);
  EXPECT_EQ(pool.arena().LiveBlocks(), 0u);
}

// The slab header plus amortized slab slots stay far below the
// map<key, shared_ptr<EH>> shape this store replaces; sanity-pin the
// per-key state size so regressions are loud.
TEST(SlabEhTest, StateHeaderStaysSmall) {
  EXPECT_LE(sizeof(SlabEhState), 32u);
}

}  // namespace
}  // namespace ecm
