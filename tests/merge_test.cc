// Tests for order-preserving aggregation of window synopses (paper §5):
// Theorem 4's error bound for exponential histograms, the deterministic-
// wave extension, lossless randomized-wave union, and the compatibility
// checks.

#include "src/window/merge.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/random.h"

namespace ecm {
namespace {

// Interleaved ground truth over several streams.
class MultiStreamTruth {
 public:
  void Add(Timestamp ts, uint64_t count = 1) {
    for (uint64_t i = 0; i < count; ++i) stamps_.push_back(ts);
  }
  uint64_t Count(Timestamp now, uint64_t range) const {
    Timestamp boundary = WindowStart(now, range);
    uint64_t n = 0;
    for (Timestamp t : stamps_) {
      if (t > boundary && t <= now) ++n;
    }
    return n;
  }

 private:
  std::vector<Timestamp> stamps_;
};

TEST(MergeByReplayEhTest, RejectsEmptyInput) {
  EXPECT_FALSE(MergeByReplay<ExponentialHistogram>({}, {0.1, 100}).ok());
}

TEST(MergeByReplayEhTest, RejectsMismatchedWindows) {
  ExponentialHistogram a({0.1, 100});
  ExponentialHistogram b({0.1, 200});
  auto r = MergeByReplay<ExponentialHistogram>({&a, &b}, {0.1, 100});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIncompatible);
}

TEST(MergeByReplayEhTest, MergeOfEmptiesIsEmpty) {
  ExponentialHistogram a({0.1, 100});
  ExponentialHistogram b({0.1, 100});
  auto m = MergeByReplay<ExponentialHistogram>({&a, &b}, {0.1, 100});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->Empty());
}

TEST(MergeByReplayEhTest, SingleInputPreservesCount) {
  ExponentialHistogram a({0.1, 100000});
  for (Timestamp t = 1; t <= 2000; ++t) a.Add(t);
  auto m = MergeByReplay<ExponentialHistogram>({&a}, {0.1, 100000});
  ASSERT_TRUE(m.ok());
  double orig = a.Estimate(2000, 100000);
  double merged = m->Estimate(2000, 100000);
  // One re-summarization: error vs the original estimate within ~2eps.
  EXPECT_NEAR(merged, orig, orig * 0.25 + 2.0);
}

TEST(MergeByReplayEhTest, MergedTotalMatchesSumOfBucketTotals) {
  ExponentialHistogram a({0.1, 1 << 20});
  ExponentialHistogram b({0.1, 1 << 20});
  for (Timestamp t = 1; t <= 1000; ++t) a.Add(t);
  for (Timestamp t = 1; t <= 1500; ++t) b.Add(t * 2);
  auto m = MergeByReplay<ExponentialHistogram>({&a, &b}, {0.1, 1 << 20});
  ASSERT_TRUE(m.ok());
  // Replay conserves every bit that was in a bucket.
  EXPECT_EQ(m->BucketTotal(), a.BucketTotal() + b.BucketTotal());
}

// Theorem 4 sweep: merged-estimate error <= (eps + eps' + eps*eps') * truth
// (+1 rounding slack) across epsilons, stream counts and query ranges.
struct MergeSweepParam {
  double eps;
  double eps_prime;
  int num_streams;
};

class MergeErrorSweep : public ::testing::TestWithParam<MergeSweepParam> {};

TEST_P(MergeErrorSweep, Theorem4Bound) {
  const MergeSweepParam p = GetParam();
  constexpr uint64_t kWindow = 1 << 20;
  std::vector<ExponentialHistogram> ehs(
      p.num_streams, ExponentialHistogram({p.eps, kWindow}));
  MultiStreamTruth truth;
  Rng rng(p.num_streams * 1000 + static_cast<uint64_t>(p.eps * 100));

  // Interleaved streams with skewed per-stream rates.
  Timestamp t = 1;
  for (int i = 0; i < 40000; ++i) {
    t += rng.Uniform(3);
    int s = static_cast<int>(rng.Uniform(p.num_streams));
    ehs[s].Add(t);
    truth.Add(t);
  }
  std::vector<const ExponentialHistogram*> ptrs;
  for (auto& eh : ehs) ptrs.push_back(&eh);
  auto merged = MergeByReplay(ptrs, {p.eps_prime, kWindow});
  ASSERT_TRUE(merged.ok());

  double bound = p.eps + p.eps_prime + p.eps * p.eps_prime;
  for (uint64_t range : {1000ULL, 20000ULL, 60000ULL}) {
    double est = merged->Estimate(t, range);
    double tv = static_cast<double>(truth.Count(t, range));
    EXPECT_LE(std::abs(est - tv), bound * tv + 2.0)
        << "range=" << range << " truth=" << tv << " est=" << est;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergeErrorSweep,
    ::testing::Values(MergeSweepParam{0.05, 0.05, 2},
                      MergeSweepParam{0.1, 0.1, 2},
                      MergeSweepParam{0.1, 0.1, 5},
                      MergeSweepParam{0.1, 0.05, 8},
                      MergeSweepParam{0.2, 0.2, 3},
                      MergeSweepParam{0.05, 0.2, 4}));

TEST(MergeByReplayDwTest, Theorem4StyleBoundHolds) {
  constexpr uint64_t kWindow = 1 << 20;
  constexpr double kEps = 0.1;
  DeterministicWave a({kEps, kWindow, 1 << 18});
  DeterministicWave b({kEps, kWindow, 1 << 18});
  MultiStreamTruth truth;
  Rng rng(42);
  Timestamp t = 1;
  for (int i = 0; i < 30000; ++i) {
    t += rng.Uniform(3);
    if (rng.Bernoulli(0.6)) {
      a.Add(t);
    } else {
      b.Add(t);
    }
    truth.Add(t);
  }
  auto merged =
      MergeByReplay<DeterministicWave>({&a, &b}, {kEps, kWindow, 1 << 19});
  ASSERT_TRUE(merged.ok());
  double bound = kEps + kEps + kEps * kEps;
  for (uint64_t range : {5000ULL, 30000ULL}) {
    double est = merged->Estimate(t, range);
    double tv = static_cast<double>(truth.Count(t, range));
    EXPECT_LE(std::abs(est - tv), bound * tv + 2.0)
        << "range=" << range << " truth=" << tv << " est=" << est;
  }
}

TEST(MergeByReplayDwTest, RejectsMismatchedWindows) {
  DeterministicWave a({0.1, 100, 1000});
  DeterministicWave b({0.1, 999, 1000});
  EXPECT_FALSE(
      MergeByReplay<DeterministicWave>({&a, &b}, {0.1, 100, 1000}).ok());
}

TEST(MergeRandomizedWavesTest, RejectsMismatchedConfig) {
  RandomizedWave::Config ca;
  ca.epsilon = 0.1;
  RandomizedWave::Config cb = ca;
  cb.epsilon = 0.2;
  RandomizedWave a(ca), b(cb);
  auto r = MergeRandomizedWaves({&a, &b}, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIncompatible);
}

TEST(MergeRandomizedWavesTest, LosslessWhileSamplesComplete) {
  // Small streams: level 0 of every sub-wave holds everything, so the
  // merged wave answers exactly.
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.2;  // capacity 100
  cfg.window_len = 1 << 16;
  cfg.max_arrivals = 1 << 12;
  cfg.seed = 1;
  RandomizedWave a(cfg);
  cfg.seed = 2;
  RandomizedWave b(cfg);
  for (Timestamp t = 1; t <= 40; ++t) a.Add(2 * t);
  for (Timestamp t = 1; t <= 30; ++t) b.Add(2 * t + 1);
  auto m = MergeRandomizedWaves({&a, &b}, 99);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->Estimate(81, 1 << 16), 70.0);
  EXPECT_EQ(m->lifetime_count(), 70u);
}

TEST(MergeRandomizedWavesTest, LargeMergeStaysInEpsilonBand) {
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.1;
  cfg.delta = 0.05;
  cfg.window_len = 1 << 20;
  cfg.max_arrivals = 1 << 17;
  std::vector<RandomizedWave> waves;
  for (int i = 0; i < 4; ++i) {
    cfg.seed = 100 + i;
    waves.emplace_back(cfg);
  }
  MultiStreamTruth truth;
  Rng rng(8);
  Timestamp t = 1;
  for (int i = 0; i < 60000; ++i) {
    t += rng.Uniform(3);
    waves[rng.Uniform(4)].Add(t);
    truth.Add(t);
  }
  std::vector<const RandomizedWave*> ptrs;
  for (auto& w : waves) ptrs.push_back(&w);
  auto merged = MergeRandomizedWaves(ptrs, 5);
  ASSERT_TRUE(merged.ok());
  for (uint64_t range : {10000ULL, 60000ULL}) {
    double est = merged->Estimate(t, range);
    double tv = static_cast<double>(truth.Count(t, range));
    EXPECT_LE(std::abs(est - tv), 2.5 * cfg.epsilon * tv + 2.0)
        << "range=" << range << " truth=" << tv << " est=" << est;
  }
}

TEST(MergeRandomizedWavesTest, HandlesDifferentLevelCounts) {
  RandomizedWave::Config small;
  small.epsilon = 0.2;
  small.window_len = 1 << 16;
  small.max_arrivals = 1 << 10;
  small.seed = 3;
  RandomizedWave::Config big = small;
  big.max_arrivals = 1 << 16;
  big.seed = 4;
  RandomizedWave a(small), b(big);
  ASSERT_LT(a.num_levels(), b.num_levels());
  for (Timestamp t = 1; t <= 5000; ++t) {
    a.Add(2 * t);
    b.Add(2 * t + 1);
  }
  auto m = MergeRandomizedWaves({&a, &b}, 17);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_levels(), b.num_levels());
  double est = m->Estimate(10001, 1 << 16);
  EXPECT_NEAR(est, 10000.0, 10000.0 * 0.5);
}

TEST(ReplayTest, BucketEventsSplitHalfHalf) {
  std::vector<BucketView> buckets = {{10, 20, 8}, {20, 20, 3}, {20, 25, 1}};
  std::vector<ReplayEvent> events;
  AppendBucketEvents(buckets, &events);
  // 8 -> 4@10 + 4@20; 3 zero-width -> 3@20; 1 -> 1@25.
  uint64_t total = 0;
  for (const auto& e : events) total += e.count;
  EXPECT_EQ(total, 12u);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].ts, 10u);
  EXPECT_EQ(events[0].count, 4u);
}

TEST(ReplayTest, ClampsTimestampZero) {
  std::vector<BucketView> buckets = {{0, 0, 4}};
  std::vector<ReplayEvent> events;
  AppendBucketEvents(buckets, &events);
  for (const auto& e : events) EXPECT_GE(e.ts, 1u);
}

}  // namespace
}  // namespace ecm
