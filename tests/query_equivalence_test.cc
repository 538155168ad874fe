// Estimate-equivalence suite for the PR-4 query-pipeline overhaul: every
// new indexed/batched query path must reproduce the legacy scan
// implementations exactly.
//
//  * ExponentialHistogram::Estimate (running-total fast path + single
//    straddling-level search) vs the bucket-scan oracle
//    (tests/test_oracles.h) — bit-identical;
//  * RandomizedWave::Estimate (run prefix-sum lookup) vs the run-scan
//    oracle — bit-identical (same integer sums), including after
//    serialization round-trips and §5.2 k-way merges;
//  * EcmSketch::InnerProduct/SelfJoin/EstimateL1 batched paths vs the
//    per-cell double-Estimate loops — bit-identical (same values, same
//    accumulation order), plus the L1's reads and refills of the
//    cell-estimate table;
//  * EcmSketch::PointQueryBatchAt vs the per-cell oracle, on both sides
//    of the n = width cutover at which a batch fills the cell-estimate
//    table, with the table cold and warm;
//  * DyadicEcm frontier heavy-hitter descent vs the recursive per-node
//    group-testing descent — same keys, estimates and order;
//  * one dyadic query round (L1, heavy hitters, quantiles, range queries,
//    self-join) bit-identical with the cell-estimate tables warm or cold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/dyadic.h"
#include "src/core/ecm_sketch.h"
#include "src/util/random.h"
#include "src/window/merge.h"
#include "tests/test_oracles.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 4096;

// Feeds a randomized weighted stream and cross-checks the fast and scan
// estimates at random read clocks and ranges (including over-length).
template <typename Counter, typename MakeFn>
void CheckCounterEquivalence(MakeFn make, int streams, int ops) {
  for (int s = 0; s < streams; ++s) {
    Counter c = make(0xC0FFEE + static_cast<uint64_t>(s));
    Rng rng(0xBEEF + static_cast<uint64_t>(s));
    Timestamp t = 1;
    for (int op = 0; op < ops; ++op) {
      t += rng.Uniform(60);
      c.Add(t, 1 + rng.Uniform(200));
      if (rng.Uniform(4) == 0) c.Add(t, 1 + rng.Uniform(30));  // equal ts
      Timestamp now = t + rng.Uniform(40);
      for (int q = 0; q < 4; ++q) {
        uint64_t range = 1 + rng.Uniform(kWindow + kWindow / 3);
        ASSERT_EQ(c.Estimate(now, range), oracle::ScanEstimate(c, now, range))
            << "stream " << s << " op " << op << " now " << now << " range "
            << range;
      }
    }
  }
}

TEST(QueryEquivalenceTest, EhEstimateMatchesScanReference) {
  CheckCounterEquivalence<ExponentialHistogram>(
      [](uint64_t) {
        return ExponentialHistogram({0.05, kWindow});
      },
      40, 120);
}

TEST(QueryEquivalenceTest, RwEstimateMatchesScanReference) {
  CheckCounterEquivalence<RandomizedWave>(
      [](uint64_t seed) {
        RandomizedWave::Config cfg;
        cfg.epsilon = 0.1;
        cfg.delta = 0.1;
        cfg.window_len = kWindow;
        cfg.max_arrivals = 1 << 18;
        cfg.seed = seed;
        return RandomizedWave(cfg);
      },
      20, 120);
}

TEST(QueryEquivalenceTest, RwEstimateMatchesScanAfterRoundTrip) {
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.1;
  cfg.window_len = kWindow;
  cfg.max_arrivals = 1 << 16;
  cfg.seed = 17;
  RandomizedWave rw(cfg);
  Rng rng(99);
  Timestamp t = 1;
  for (int i = 0; i < 400; ++i) {
    t += rng.Uniform(30);
    rw.Add(t, 1 + rng.Uniform(100));
  }
  ByteWriter w;
  rw.SerializeTo(&w);
  ByteReader r(w.bytes());
  RandomizedWave back;
  ASSERT_TRUE(back.DecodeFrom(&r).ok());
  const uint64_t ranges[] = {7, 133, 1024, kWindow};
  for (uint64_t range : ranges) {
    // The decoded wave's run cumulative counts must be consistent: its
    // indexed estimate equals both its own scan and the original's.
    EXPECT_EQ(back.Estimate(t, range), oracle::ScanEstimate(back, t, range));
    EXPECT_EQ(back.Estimate(t, range), rw.Estimate(t, range));
  }
}

TEST(QueryEquivalenceTest, RwEstimateMatchesScanAfterMerge) {
  std::vector<RandomizedWave> waves;
  Rng rng(5);
  Timestamp t = 1;
  for (int i = 0; i < 3; ++i) {
    RandomizedWave::Config cfg;
    cfg.epsilon = 0.15;
    cfg.window_len = kWindow;
    cfg.max_arrivals = 1 << 14;
    cfg.seed = 100 + static_cast<uint64_t>(i);
    waves.emplace_back(cfg);
  }
  for (int op = 0; op < 600; ++op) {
    t += rng.Uniform(20);
    waves[rng.Uniform(3)].Add(t, 1 + rng.Uniform(50));
  }
  std::vector<const RandomizedWave*> inputs;
  for (const auto& w : waves) inputs.push_back(&w);
  auto merged = MergeRandomizedWaves(inputs, 0xFEED);
  ASSERT_TRUE(merged.ok());
  const uint64_t ranges[] = {19, 512, kWindow};
  for (uint64_t range : ranges) {
    // The k-way merged wave's cumulative counts must be consistent too.
    EXPECT_EQ(merged->Estimate(t, range),
              oracle::ScanEstimate(*merged, t, range));
  }
}

// Builds a moderately loaded EH sketch for the sketch-level checks.
EcmEh MakeLoadedSketch(uint64_t seed, Timestamp* now_out) {
  auto cfg = EcmConfig::Create(0.1, 0.05, WindowMode::kTimeBased, kWindow,
                               seed);
  EXPECT_TRUE(cfg.ok());
  EcmEh sketch(*cfg);
  Rng rng(seed);
  Timestamp t = 1;
  for (int i = 0; i < 4000; ++i) {
    t += rng.Uniform(3);
    sketch.Add(rng.Uniform(500), t, 1 + rng.Uniform(8));
  }
  *now_out = t;
  return sketch;
}

TEST(QueryEquivalenceTest, BatchedSelfJoinMatchesPerCellLoops) {
  Timestamp now = 0;
  EcmEh sketch = MakeLoadedSketch(21, &now);
  const EcmConfig& cfg = sketch.config();
  const uint64_t ranges[] = {64, 777, kWindow};
  for (uint64_t range : ranges) {
    // Per-cell reference with the new counter estimates (exercises the
    // batching plumbing alone) ...
    double ref_new = std::numeric_limits<double>::infinity();
    // ... and with the legacy scans (the full pre-PR4 pipeline).
    double ref_legacy = std::numeric_limits<double>::infinity();
    for (int j = 0; j < cfg.depth; ++j) {
      double row_new = 0.0, row_legacy = 0.0;
      for (uint32_t i = 0; i < cfg.width; ++i) {
        const ExponentialHistogram& c = sketch.CounterAt(j, i);
        row_new += c.Estimate(now, range) * c.Estimate(now, range);
        row_legacy += oracle::ScanEstimate(c, now, range) *
                      oracle::ScanEstimate(c, now, range);
      }
      ref_new = std::min(ref_new, row_new);
      ref_legacy = std::min(ref_legacy, row_legacy);
    }
    double batched = sketch.InnerProductAt(sketch, range, now).value();
    EXPECT_EQ(batched, ref_new) << "range " << range;
    EXPECT_EQ(batched, ref_legacy) << "range " << range;
  }
}

TEST(QueryEquivalenceTest, BatchedInnerProductMatchesPerCellLoop) {
  Timestamp now_a = 0, now_b = 0;
  EcmEh a = MakeLoadedSketch(31, &now_a);
  EcmEh b = MakeLoadedSketch(31, &now_b);  // same seed: compatible configs
  // Different contents.
  Rng rng(77);
  Timestamp t = now_b;
  for (int i = 0; i < 1000; ++i) {
    t += rng.Uniform(2);
    b.Add(rng.Uniform(300), t, 1 + rng.Uniform(5));
  }
  Timestamp now = std::max(now_a, t);
  const EcmConfig& cfg = a.config();
  const uint64_t ranges[] = {128, kWindow};
  for (uint64_t range : ranges) {
    double ref = std::numeric_limits<double>::infinity();
    for (int j = 0; j < cfg.depth; ++j) {
      double row = 0.0;
      for (uint32_t i = 0; i < cfg.width; ++i) {
        row += a.CounterAt(j, i).Estimate(now, range) *
               b.CounterAt(j, i).Estimate(now, range);
      }
      ref = std::min(ref, row);
    }
    EXPECT_EQ(a.InnerProductAt(b, range, now).value(), ref)
        << "range " << range;
  }
}

TEST(QueryEquivalenceTest, EstimateL1MatchesPerCellSweepAndInvalidates) {
  Timestamp now = 0;
  EcmEh sketch = MakeLoadedSketch(41, &now);
  const EcmConfig& cfg = sketch.config();
  auto reference = [&](uint64_t range, Timestamp at) {
    double total = 0.0;
    for (int j = 0; j < cfg.depth; ++j) {
      for (uint32_t i = 0; i < cfg.width; ++i) {
        total += sketch.CounterAt(j, i).Estimate(at, range);
      }
    }
    return total / cfg.depth;
  };
  const uint64_t ranges[] = {100, kWindow};
  for (uint64_t range : ranges) {
    double first = sketch.EstimateL1At(range, now);
    EXPECT_EQ(first, reference(range, now));
    // Memoized second call returns the identical value.
    EXPECT_EQ(sketch.EstimateL1At(range, now), first);
  }
  // An update must invalidate the memo: the cached (now, range) pair
  // would otherwise serve a stale total.
  double before = sketch.EstimateL1At(kWindow, now);
  sketch.Add(7, now + 1, 1000);
  double after = sketch.EstimateL1At(kWindow, now + 1);
  EXPECT_EQ(after, reference(kWindow, now + 1));
  EXPECT_NE(after, before);
}

TEST(QueryEquivalenceTest, PointQueryBatchMatchesPerKeyQueries) {
  Timestamp now = 0;
  EcmEh sketch = MakeLoadedSketch(51, &now);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 257; ++k) keys.push_back(k * 31 % 500);
  std::vector<double> batched(keys.size());
  const uint64_t ranges[] = {64, kWindow};
  for (uint64_t range : ranges) {
    sketch.PointQueryBatchAt(keys.data(), keys.size(), range, now,
                             batched.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(batched[i], sketch.PointQueryAt(keys[i], range, now))
          << "key " << keys[i] << " range " << range;
    }
  }
}

// Min over rows of the per-cell scan oracle: what every point read of
// `key` at (now, range) must return.
double CellMinReference(const EcmEh& s, uint64_t key, uint64_t range,
                        Timestamp now) {
  uint32_t cols[kMaxSketchDepth];
  s.RowBuckets(key, cols);
  double best = std::numeric_limits<double>::infinity();
  for (int j = 0; j < s.config().depth; ++j) {
    best = std::min(best,
                    oracle::ScanEstimate(s.CounterAt(j, cols[j]), now, range));
  }
  return best;
}

TEST(QueryEquivalenceTest, PointQueryBatchMatchesPerKeyAcrossSweepCutover) {
  // From n = width keys on a batch fills the cell-estimate table and reads
  // it; a smaller batch reads the table only when it is already valid at
  // (now, range), and otherwise estimates its own cells. Every size on
  // both sides of the cutover, with the table cold (left at another range)
  // and warm (filled at this one), must match the per-cell oracle bit for
  // bit, column-colliding duplicates included.
  Timestamp now = 0;
  const EcmEh sketch = MakeLoadedSketch(61, &now);
  const size_t w = sketch.config().width;
  Rng rng(77);
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < 4 * w; ++i) keys.push_back(rng.Uniform(700));
  std::vector<double> got(keys.size());
  std::vector<double> row(w);
  const uint64_t ranges[] = {64, kWindow / 3, kWindow};
  for (size_t n : {size_t{1}, w - 1, w, 4 * w}) {
    for (uint64_t range : ranges) {
      for (bool warm : {false, true}) {
        sketch.EstimateRowAt(0, warm ? range : range + 1, now, row.data());
        sketch.PointQueryBatchAt(keys.data(), n, range, now, got.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], CellMinReference(sketch, keys[i], range, now))
              << "n " << n << " key " << keys[i] << " range " << range
              << (warm ? " warm" : " cold");
        }
      }
    }
  }
}

TEST(QueryEquivalenceTest, EstimateL1ReadsTheCellTable) {
  // The windowed L1 is the cell-estimate table's sum over the depth: an
  // L1 read at the table's (now, range) is a hit whichever whole-sketch
  // read filled the table, and a read at any other range refills it.
  Timestamp now = 0;
  EcmEh sketch = MakeLoadedSketch(71, &now);
  const EcmEh& frozen = sketch;  // const CounterAt: no version bump
  const EcmConfig& cfg = sketch.config();
  auto reference = [&](uint64_t range) {
    double total = 0.0;
    for (int j = 0; j < cfg.depth; ++j) {
      for (uint32_t i = 0; i < cfg.width; ++i) {
        total += frozen.CounterAt(j, i).Estimate(now, range);
      }
    }
    return total / cfg.depth;
  };
  auto expect_l1 = [&](uint64_t range, bool hit, const char* after) {
    SCOPED_TRACE(after);
    const auto before = sketch.l1_cache_stats();
    EXPECT_EQ(sketch.EstimateL1At(range, now), reference(range));
    const auto stats = sketch.l1_cache_stats();
    EXPECT_EQ(stats.hits - before.hits, hit ? 1u : 0u);
    EXPECT_EQ(stats.misses - before.misses, hit ? 0u : 1u);
  };
  const uint64_t ladder[] = {50, 800, kWindow};
  for (uint64_t range : ladder) {
    expect_l1(range, false, "another range");
    for (int rep = 0; rep < 3; ++rep) expect_l1(range, true, "repeat");
  }
  expect_l1(ladder[0], false, "an earlier range");

  // Each whole-sketch read at a fresh range fills the table; the L1 at
  // that range then reads it. A batch below `width` keys fills nothing.
  std::vector<uint64_t> keys(cfg.width);
  for (size_t k = 0; k < keys.size(); ++k) keys[k] = k * 7;
  std::vector<double> out(cfg.width);
  uint64_t range = 300;
  ASSERT_EQ(sketch.Now(), now);
  (void)sketch.SelfJoin(++range);
  expect_l1(range, true, "SelfJoin");
  sketch.EstimateRowAt(cfg.depth - 1, ++range, now, out.data());
  expect_l1(range, true, "EstimateRowAt");
  sketch.PointQueryBatchAt(keys.data(), keys.size(), ++range, now,
                           out.data());
  expect_l1(range, true, "a batch of width keys");
  sketch.PointQueryBatchAt(keys.data(), keys.size() - 1, ++range, now,
                           out.data());
  expect_l1(range, false, "a batch below width");

  // An update invalidates the table and its sum.
  sketch.Add(3, ++now, 5);
  expect_l1(range, false, "Add");
  expect_l1(range, true, "repeat after Add");
}

// The range query of one aligned dyadic block: it decomposes to that one
// (level, prefix), so it reads exactly the estimate the descent reads.
template <typename Counter>
double BlockQuery(const DyadicEcm<Counter>& dy, int level, uint64_t prefix,
                  uint64_t range) {
  return dy.RangeQuery(prefix << level, ((prefix + 1) << level) - 1, range);
}

// Reference recursive per-node descent, on the public API.
template <typename Counter>
void DescendReference(const DyadicEcm<Counter>& dy, int level,
                      uint64_t prefix, double threshold, uint64_t range,
                      std::vector<HeavyHitter>* out) {
  double est = BlockQuery(dy, level, prefix, range);
  if (est < threshold) return;
  if (level == 0) {
    out->push_back(HeavyHitter{prefix, est});
    return;
  }
  DescendReference(dy, level - 1, prefix * 2, threshold, range, out);
  DescendReference(dy, level - 1, prefix * 2 + 1, threshold, range, out);
}

TEST(QueryEquivalenceTest, FrontierHeavyHittersMatchRecursiveDescent) {
  auto dy = DyadicEcm<ExponentialHistogram>::Create(
      12, 0.05, 0.05, WindowMode::kTimeBased, kWindow, 9);
  ASSERT_TRUE(dy.ok());
  Rng rng(13);
  Timestamp t = 1;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(2);
    // Skewed keys so some prefixes are heavy.
    uint64_t key = rng.Uniform(8) == 0 ? rng.Uniform(5) : rng.Uniform(4000);
    dy->Add(key, t);
  }
  for (double threshold : {200.0, 1000.0}) {
    auto fast = dy->HeavyHittersAbsolute(threshold, kWindow);
    std::vector<HeavyHitter> ref;
    DescendReference(*dy, dy->domain_bits() - 1, 0, threshold, kWindow, &ref);
    DescendReference(*dy, dy->domain_bits() - 1, 1, threshold, kWindow, &ref);
    ASSERT_EQ(fast.size(), ref.size()) << "threshold " << threshold;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].key, ref[i].key);
      EXPECT_EQ(fast[i].estimate, ref[i].estimate);
    }
  }
}

TEST(QueryEquivalenceTest, RangeQueryMatchesPerRangeSum) {
  auto dy = DyadicEcm<ExponentialHistogram>::Create(
      10, 0.05, 0.05, WindowMode::kTimeBased, kWindow, 4);
  ASSERT_TRUE(dy.ok());
  Rng rng(23);
  Timestamp t = 1;
  for (int i = 0; i < 8000; ++i) {
    t += rng.Uniform(2);
    dy->Add(rng.Uniform(1000), t);
  }
  for (int q = 0; q < 50; ++q) {
    uint64_t lo = rng.Uniform(1000);
    uint64_t hi = lo + rng.Uniform(1000);
    double ref = 0.0;
    for (const DyadicRange& r : DyadicDecompose(lo, hi, dy->domain_bits())) {
      ref += BlockQuery(*dy, r.level, r.prefix, kWindow);
    }
    // The grouped-by-level batch sums in a different order; allow FP
    // reassociation noise only.
    EXPECT_NEAR(dy->RangeQuery(lo, hi, kWindow), ref, 1e-6 * (1.0 + ref));
  }
}

// Every answer of one dyadic query round at one (now, range), in the
// order a dashboard asks them: L1, ratio heavy hitters, three quantiles,
// range queries, the self-join.
struct RoundAnswers {
  double l1 = 0.0;
  std::vector<HeavyHitter> hh;
  std::vector<uint64_t> quantiles;
  std::vector<double> ranges;
  double selfjoin = 0.0;
};

// Moves every sketch level's cell-estimate table off (Now(), range) by
// filling it at another range, so the next read at `range` finds it cold.
template <typename Counter>
void CoolTables(const DyadicEcm<Counter>& dy, uint64_t range) {
  for (int l = 0; l < dy.sketch_levels(); ++l) {
    const EcmSketch<Counter>& level = dy.level(l);
    std::vector<double> row(level.config().width);
    level.EstimateRowAt(0, range + 1, level.Now(), row.data());
  }
}

TEST(QueryEquivalenceTest, DyadicRoundMatchesWithTablesWarmOrCold) {
  // Two identical stacks. `warm` answers the round back to back, so the
  // L1 sweep fills level 0's table and the heavy-hitter probes, quantile
  // searches, range queries and self-join read it (and wide frontiers
  // fill the upper levels' tables). `cold` moves every table off before
  // each query. The answers must be bit-identical.
  auto make = [] {
    auto dy = DyadicEcm<ExponentialHistogram>::Create(
        12, 0.05, 0.05, WindowMode::kTimeBased, kWindow, 9);
    EXPECT_TRUE(dy.ok());
    return std::move(*dy);
  };
  DyadicEcm<ExponentialHistogram> warm = make(), cold = make();
  ASSERT_LT(warm.sketch_levels(), warm.domain_bits());  // exact levels too
  Rng rng(31);
  Timestamp t = 1;
  const double qs[] = {0.25, 0.5, 0.99};
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3000; ++i) {
      t += rng.Uniform(2);
      const uint64_t key =
          rng.Uniform(6) == 0 ? rng.Uniform(7) : rng.Uniform(4000);
      warm.Add(key, t);
      cold.Add(key, t);
    }
    std::vector<std::pair<uint64_t, uint64_t>> intervals;
    for (int q = 0; q < 8; ++q) {
      const uint64_t lo = rng.Uniform(4000);
      intervals.emplace_back(lo, lo + rng.Uniform(4096 - lo));
    }
    for (uint64_t range : {uint64_t{300}, kWindow}) {
      SCOPED_TRACE("round " + std::to_string(round) + " range " +
                   std::to_string(range));
      auto answer = [&](const DyadicEcm<ExponentialHistogram>& dy,
                        bool cool) {
        RoundAnswers a;
        if (cool) CoolTables(dy, range);
        a.l1 = dy.EstimateL1(range);
        if (cool) CoolTables(dy, range);
        a.hh = dy.HeavyHitters(0.01, range);
        for (double q : qs) {
          if (cool) CoolTables(dy, range);
          a.quantiles.push_back(dy.Quantile(q, range));
        }
        for (const auto& [lo, hi] : intervals) {
          if (cool) CoolTables(dy, range);
          a.ranges.push_back(dy.RangeQuery(lo, hi, range));
        }
        if (cool) CoolTables(dy, range);
        a.selfjoin = dy.level(0).SelfJoin(range);
        return a;
      };
      const RoundAnswers w = answer(warm, false);
      const RoundAnswers c = answer(cold, true);
      EXPECT_EQ(w.l1, c.l1);
      ASSERT_EQ(w.hh.size(), c.hh.size());
      EXPECT_FALSE(w.hh.empty());
      for (size_t i = 0; i < w.hh.size(); ++i) {
        EXPECT_EQ(w.hh[i].key, c.hh[i].key);
        EXPECT_EQ(w.hh[i].estimate, c.hh[i].estimate);
      }
      EXPECT_EQ(w.quantiles, c.quantiles);
      EXPECT_EQ(w.ranges, c.ranges);
      EXPECT_EQ(w.selfjoin, c.selfjoin);
    }
  }
}

}  // namespace
}  // namespace ecm
