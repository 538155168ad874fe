// Tests for the dyadic ECM stack (§6.1): dyadic decomposition, heavy
// hitters with the Theorem-5 completeness/soundness directions, range
// queries, and quantiles — all over sliding windows.

#include "src/core/dyadic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/dist/serialize.h"
#include "src/stream/generators.h"
#include "src/util/random.h"

namespace ecm {
namespace {

TEST(DyadicDecomposeTest, SingleKey) {
  auto ranges = DyadicDecompose(5, 5, 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].level, 0);
  EXPECT_EQ(ranges[0].prefix, 5u);
}

TEST(DyadicDecomposeTest, AlignedBlock) {
  auto ranges = DyadicDecompose(8, 15, 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].level, 3);
  EXPECT_EQ(ranges[0].prefix, 1u);
}

TEST(DyadicDecomposeTest, FullDomainUsesTopLevelPair) {
  auto ranges = DyadicDecompose(0, 255, 8);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].level, 7);
  EXPECT_EQ(ranges[1].level, 7);
}

TEST(DyadicDecomposeTest, CoversExactlyOnce) {
  // Property: decomposition partitions [lo, hi].
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t lo = rng.Uniform(1000);
    uint64_t hi = std::min<uint64_t>(lo + rng.Uniform(1000), 1023);
    auto ranges = DyadicDecompose(lo, hi, 10);
    std::set<uint64_t> covered;
    for (const auto& r : ranges) {
      uint64_t start = r.prefix << r.level;
      for (uint64_t k = start; k < start + (1ULL << r.level); ++k) {
        EXPECT_TRUE(covered.insert(k).second) << "key covered twice: " << k;
      }
    }
    EXPECT_EQ(covered.size(), hi - lo + 1);
    EXPECT_EQ(*covered.begin(), lo);
    EXPECT_EQ(*covered.rbegin(), hi);
  }
}

TEST(DyadicDecomposeTest, EmptyOnInvertedRange) {
  EXPECT_TRUE(DyadicDecompose(10, 5, 8).empty());
}

TEST(DyadicDecomposeTest, ClampsToDomain) {
  auto ranges = DyadicDecompose(250, 10000, 8);
  uint64_t total = 0;
  for (const auto& r : ranges) total += 1ULL << r.level;
  EXPECT_EQ(total, 6u);  // 250..255
}

class DyadicEcmTest : public ::testing::Test {
 protected:
  static constexpr int kDomainBits = 12;  // 4096 keys
  static constexpr uint64_t kWindow = 100000;

  DyadicEcm<ExponentialHistogram> Build(double epsilon, uint64_t seed) {
    auto d = DyadicEcm<ExponentialHistogram>::Create(
        kDomainBits, epsilon, 0.05, WindowMode::kTimeBased, kWindow, seed);
    EXPECT_TRUE(d.ok());
    return std::move(*d);
  }
};

TEST_F(DyadicEcmTest, RangeQueryMatchesExactCounts) {
  auto dyadic = Build(0.05, 1);
  ZipfStream::Config zc;
  zc.domain = 4000;
  zc.skew = 0.9;
  zc.seed = 5;
  ZipfStream stream(zc);
  auto events = stream.Take(30000);
  for (const auto& e : events) dyadic.Add(e.key, e.ts);
  Timestamp now = events.back().ts;

  auto exact = ComputeExactRangeStats(events, now, 20000);
  auto count_in = [&](uint64_t lo, uint64_t hi) {
    uint64_t c = 0;
    for (const auto& [k, v] : exact.freqs) {
      if (k >= lo && k <= hi) c += v;
    }
    return static_cast<double>(c);
  };
  for (auto [lo, hi] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 10}, {1, 1}, {100, 900}, {0, 4095}, {2000, 2300}}) {
    double est = dyadic.RangeQuery(lo, hi, 20000);
    double truth = count_in(lo, hi);
    // Dyadic sums accumulate per-range error: generous band.
    EXPECT_NEAR(est, truth, 0.15 * exact.l1 + 3.0)
        << "range [" << lo << "," << hi << "]";
  }
}

TEST_F(DyadicEcmTest, HeavyHittersFindAllTrueHitters) {
  auto dyadic = Build(0.02, 2);
  // Planted hitters: keys 3, 700, 2049 get 15% each; the rest uniform.
  Rng rng(6);
  Timestamp t = 1;
  std::vector<StreamEvent> events;
  for (int i = 0; i < 30000; ++i) {
    t += rng.Uniform(2);
    uint64_t key;
    double u = rng.NextDouble();
    if (u < 0.15) {
      key = 3;
    } else if (u < 0.30) {
      key = 700;
    } else if (u < 0.45) {
      key = 2049;
    } else {
      key = rng.Uniform(4096);
    }
    dyadic.Add(key, t);
    events.push_back({t, key, 0});
  }
  auto hitters = dyadic.HeavyHitters(/*phi_ratio=*/0.1, /*range=*/kWindow);
  std::set<uint64_t> found;
  for (const auto& h : hitters) found.insert(h.key);
  // Completeness (Theorem 5): every key above (phi+eps)||a|| is reported.
  EXPECT_TRUE(found.count(3));
  EXPECT_TRUE(found.count(700));
  EXPECT_TRUE(found.count(2049));
  // Soundness: nothing below phi*||a|| (w.h.p.); uniform keys have ~0.02%.
  auto exact = ComputeExactRangeStats(events, t, kWindow);
  for (uint64_t k : found) {
    uint64_t truth = 0;
    for (const auto& [key, c] : exact.freqs) {
      if (key == k) truth = c;
    }
    EXPECT_GE(static_cast<double>(truth), 0.08 * exact.l1) << "key " << k;
  }
}

TEST_F(DyadicEcmTest, HeavyHittersRespectWindow) {
  auto dyadic = Build(0.02, 3);
  // Key 11 is hot early, key 22 hot late; the window query must surface
  // only the late one.
  Timestamp t = 1;
  for (int i = 0; i < 5000; ++i) dyadic.Add(11, t++);
  for (int i = 0; i < 5000; ++i) dyadic.Add(22, t++);
  auto hitters = dyadic.HeavyHittersAbsolute(/*threshold=*/2000,
                                             /*range=*/4000);
  std::set<uint64_t> found;
  for (const auto& h : hitters) found.insert(h.key);
  EXPECT_TRUE(found.count(22));
  EXPECT_FALSE(found.count(11));
}

TEST_F(DyadicEcmTest, QuantilesOnUniformKeys) {
  auto dyadic = Build(0.02, 4);
  // Uniform keys over [0, 4096): the q-quantile should be ~q*4096.
  Rng rng(9);
  Timestamp t = 1;
  for (int i = 0; i < 40000; ++i) {
    t += 1;
    dyadic.Add(rng.Uniform(4096), t);
  }
  for (double q : {0.25, 0.5, 0.9}) {
    uint64_t est = dyadic.Quantile(q, kWindow);
    EXPECT_NEAR(static_cast<double>(est), q * 4096.0, 4096.0 * 0.08)
        << "quantile " << q;
  }
}

TEST_F(DyadicEcmTest, QuantileOnPointMass) {
  auto dyadic = Build(0.05, 5);
  for (Timestamp t = 1; t <= 10000; ++t) dyadic.Add(1234, t);
  EXPECT_EQ(dyadic.Quantile(0.5, kWindow), 1234u);
}

TEST_F(DyadicEcmTest, MemoryScalesWithDomainBits) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 1);
  ASSERT_TRUE(cfg.ok());
  const size_t sketch_bytes = EcmEh(*cfg).MemoryBytes();
  DyadicEcm<ExponentialHistogram> small(8, *cfg);
  DyadicEcm<ExponentialHistogram> large(16, *cfg);
  DyadicEcm<ExponentialHistogram> larger(17, *cfg);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
  // Past the exact-level cutoff, each further key bit adds one sketch
  // level and keeps the exact-level counter count, so memory grows
  // linearly in domain_bits, one sketch per bit.
  EXPECT_EQ(larger.sketch_levels(), large.sketch_levels() + 1);
  EXPECT_EQ(larger.MemoryBytes() - large.MemoryBytes(), sketch_bytes);
  // Never more than an all-sketch stack.
  EXPECT_LT(small.MemoryBytes(), 8 * sketch_bytes);
  EXPECT_LT(large.MemoryBytes(), 16 * sketch_bytes);
}

// Level 0 is the stream's own sketch: built from the config unchanged,
// seed included, it serializes byte-identical to EcmSketch(config) fed the
// same stream, in both window modes.
TEST(DyadicLevelZeroTest, IsTheStandaloneSketch) {
  for (WindowMode mode : {WindowMode::kTimeBased, WindowMode::kCountBased}) {
    auto cfg = EcmConfig::Create(0.1, 0.01, mode, 5'000, 23);
    ASSERT_TRUE(cfg.ok());
    DyadicEcm<ExponentialHistogram> dyadic(17, *cfg);
    EcmSketch<ExponentialHistogram> standalone(*cfg);
    ZipfStream::Config zc;
    zc.domain = 1u << 17;
    zc.skew = 1.1;
    zc.seed = 9;
    ZipfStream stream(zc);
    for (const auto& e : stream.Take(20'000)) {
      dyadic.Add(e.key, e.ts);
      standalone.Add(e.key, e.ts);
    }
    EXPECT_EQ(SerializeSketch(dyadic.level(0)), SerializeSketch(standalone));
  }
}

TEST(DyadicEcmCreateTest, RejectsBadDomainBits) {
  auto d = DyadicEcm<ExponentialHistogram>::Create(
      0, 0.1, 0.1, WindowMode::kTimeBased, 1000, 1);
  EXPECT_FALSE(d.ok());
  auto d2 = DyadicEcm<ExponentialHistogram>::Create(
      64, 0.1, 0.1, WindowMode::kTimeBased, 1000, 1);
  EXPECT_FALSE(d2.ok());
}

// The e2ebench query stack's shape: ε = 0.1, δ = 0.01 gives 56 × 5.
EcmConfig Config56x5(WindowMode mode, uint64_t window) {
  auto cfg = EcmConfig::Create(0.1, 0.01, mode, window, 7);
  EXPECT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->width, 56u);
  EXPECT_EQ(cfg->depth, 5);
  return *cfg;
}

TEST(DyadicExactLevelsTest, CutoffAt17BitsAnd56x5) {
  const EcmConfig cfg = Config56x5(WindowMode::kTimeBased, 100'000);
  DyadicEcm<ExponentialHistogram> dyadic(17, cfg);
  // Level i holds 2^(17 - i) prefixes: 256 <= 280 cells from level 9 on.
  EXPECT_EQ(dyadic.sketch_levels(), 9);
  // The all-sketch stack: one sketch per level, fed the same prefixes.
  std::vector<EcmSketch<ExponentialHistogram>> all_sketch(17, EcmEh(cfg));
  Rng rng(3);
  for (Timestamp t = 1; t <= 20'000; ++t) {
    const uint64_t key = rng.Uniform(1u << 17);
    dyadic.Add(key, t);
    for (int i = 0; i < 17; ++i) all_sketch[i].Add(key >> i, t);
  }
  size_t all_sketch_bytes = 0;
  for (const auto& s : all_sketch) all_sketch_bytes += s.MemoryBytes();
  EXPECT_LT(dyadic.MemoryBytes(), all_sketch_bytes);
  // Exact top levels count each prefix exactly up to ε_sw; the top pair
  // splits the 20k arrivals between the two halves of the domain.
  const double low = dyadic.RangeQuery(0, (1u << 16) - 1, 100'000);
  const double high = dyadic.RangeQuery(1u << 16, (1u << 17) - 1, 100'000);
  EXPECT_NEAR(low + high, 20'000.0, 20'000.0 * cfg.epsilon_sw);
}

TEST(DyadicExactLevelsTest, EveryLevelAboveZeroExact) {
  // 8 bits: level 1 has 128 prefixes, within 280 cells.
  DyadicEcm<ExponentialHistogram> dyadic(
      8, Config56x5(WindowMode::kTimeBased, 1'000));
  EXPECT_EQ(dyadic.sketch_levels(), 1);
  for (Timestamp t = 1; t <= 500; ++t) dyadic.Add(t % 256, t);
  EXPECT_EQ(dyadic.level(0).Now(), 500u);
  // Every multi-key range reads exact levels only, with ε_sw error.
  EXPECT_NEAR(dyadic.RangeQuery(0, 255, 1'000), 500.0, 50.0);
  EXPECT_NEAR(dyadic.RangeQuery(0, 127, 1'000), 255.0, 26.0);
  // A key outside the domain lies in no prefix: the exact levels skip it.
  for (Timestamp t = 501; t <= 600; ++t) dyadic.Add(1'000 + t, t);
  EXPECT_NEAR(dyadic.RangeQuery(0, 255, 1'000), 500.0, 50.0);
}

TEST(DyadicExactLevelsTest, NoExactLevels) {
  // One bit: level 0 only. A 1 × 1 sketch: even the top pair of
  // prefixes does not fit.
  DyadicEcm<ExponentialHistogram> one_bit(
      1, Config56x5(WindowMode::kTimeBased, 1'000));
  EXPECT_EQ(one_bit.sketch_levels(), 1);
  EcmConfig tiny = Config56x5(WindowMode::kTimeBased, 1'000);
  tiny.width = 1;
  tiny.depth = 1;
  DyadicEcm<ExponentialHistogram> dyadic(6, tiny);
  EXPECT_EQ(dyadic.sketch_levels(), 6);
  for (Timestamp t = 1; t <= 100; ++t) dyadic.Add(t % 64, t);
  // Every range collides into the one cell of each level it reads.
  EXPECT_NEAR(dyadic.RangeQuery(32, 63, 1'000), 100.0, 10.0);
}

TEST(DyadicExactLevelsTest, CountBasedRangeQueryOnExactLevel) {
  // Count-based: exact counters are keyed by the arrival index, not by
  // the (here constant) timestamp.
  DyadicEcm<ExponentialHistogram> dyadic(
      8, Config56x5(WindowMode::kCountBased, 4'000));
  ASSERT_EQ(dyadic.sketch_levels(), 1);
  for (int i = 0; i < 2'000; ++i) dyadic.Add(5, 1);
  for (int i = 0; i < 1'000; ++i) dyadic.Add(200, 1);
  EXPECT_EQ(dyadic.level(0).Now(), 3'000u);
  // The last 1500 arrivals: 500 of key 5, 1000 of key 200. Each range is
  // one exact level-7 prefix.
  ASSERT_EQ(DyadicDecompose(0, 127, 8).size(), 1u);
  EXPECT_NEAR(dyadic.RangeQuery(0, 127, 1'500), 500.0, 50.0);
  EXPECT_NEAR(dyadic.RangeQuery(128, 255, 1'500), 1'000.0, 100.0);
  EXPECT_NEAR(dyadic.RangeQuery(0, 127, 4'000), 2'000.0, 200.0);
}

}  // namespace
}  // namespace ecm
