// Property tests for the dyadic stack beyond the basics of
// dyadic_test.cc: range-sum additivity, quantile monotonicity and
// inverse consistency on skewed key distributions, window-sliding
// behaviour of ranges, and the paper's bounds (Theorem 5 completeness and
// soundness, the decomposition's additive range error) on a stack with
// exact top levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "src/core/dyadic.h"
#include "src/stream/generators.h"
#include "src/util/random.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 50'000;
constexpr int kDomainBits = 11;  // 2048 keys

DyadicEcm<ExponentialHistogram> BuildSkewed(double skew, uint64_t seed,
                                            std::vector<StreamEvent>* events) {
  auto dyadic = DyadicEcm<ExponentialHistogram>::Create(
      kDomainBits, 0.02, 0.05, WindowMode::kTimeBased, kWindow, seed);
  EXPECT_TRUE(dyadic.ok());
  ZipfStream::Config zc;
  zc.domain = 2000;
  zc.skew = skew;
  zc.seed = seed + 1;
  ZipfStream stream(zc);
  *events = stream.Take(30'000);
  for (const auto& e : *events) dyadic->Add(e.key, e.ts);
  return std::move(*dyadic);
}

class DyadicSkewSweep : public ::testing::TestWithParam<double> {};

TEST_P(DyadicSkewSweep, RangeSumsAreAdditive) {
  std::vector<StreamEvent> events;
  auto dyadic = BuildSkewed(GetParam(), 3, &events);
  // [a, c] ~ [a, b] + [b+1, c] for random split points (each side is a
  // different dyadic decomposition; errors are additive and bounded).
  Rng rng(5);
  auto exact = ComputeExactRangeStats(events, events.back().ts, kWindow);
  for (int trial = 0; trial < 20; ++trial) {
    uint64_t a = rng.Uniform(1000);
    uint64_t c = a + 1 + rng.Uniform(1000);
    uint64_t b = a + rng.Uniform(c - a);
    double whole = dyadic.RangeQuery(a, c, kWindow);
    double parts =
        dyadic.RangeQuery(a, b, kWindow) + dyadic.RangeQuery(b + 1, c, kWindow);
    EXPECT_NEAR(whole, parts, 0.1 * static_cast<double>(exact.l1) + 5.0)
        << "[" << a << "," << b << "," << c << "]";
  }
}

TEST_P(DyadicSkewSweep, QuantilesAreMonotone) {
  std::vector<StreamEvent> events;
  auto dyadic = BuildSkewed(GetParam(), 7, &events);
  uint64_t prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    uint64_t k = dyadic.Quantile(q, kWindow);
    EXPECT_GE(k, prev) << "q=" << q;
    prev = k;
  }
}

TEST_P(DyadicSkewSweep, QuantileInvertsRank) {
  std::vector<StreamEvent> events;
  auto dyadic = BuildSkewed(GetParam(), 11, &events);
  auto exact = ComputeExactRangeStats(events, events.back().ts, kWindow);
  for (double q : {0.25, 0.5, 0.9}) {
    uint64_t k = dyadic.Quantile(q, kWindow);
    // The true rank of the estimated quantile key must be near q.
    uint64_t rank = 0;
    for (const auto& [key, count] : exact.freqs) {
      if (key <= k) rank += count;
    }
    double realized = static_cast<double>(rank) / exact.l1;
    EXPECT_NEAR(realized, q, 0.12) << "q=" << q << " key=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, DyadicSkewSweep,
                         ::testing::Values(0.0, 0.8, 1.2));

TEST(DyadicWindowTest, RangeCountsSlideWithTheWindow) {
  auto dyadic = DyadicEcm<ExponentialHistogram>::Create(
      kDomainBits, 0.02, 0.05, WindowMode::kTimeBased, 1'000, 13);
  ASSERT_TRUE(dyadic.ok());
  // Keys 0..99 early, keys 100..199 late.
  Timestamp t = 1;
  for (int i = 0; i < 2'000; ++i) dyadic->Add(i % 100, t++);
  for (int i = 0; i < 2'000; ++i) dyadic->Add(100 + i % 100, t++);
  // The low range left the 1000-tick window; the high range fills it.
  EXPECT_LE(dyadic->RangeQuery(0, 99, 1'000), 150.0);
  EXPECT_NEAR(dyadic->RangeQuery(100, 199, 1'000), 1'000.0, 150.0);
}

TEST(DyadicWindowTest, HeavyHittersEstimatesAreSelfConsistent) {
  std::vector<StreamEvent> events;
  auto dyadic = BuildSkewed(1.2, 17, &events);
  auto hitters = dyadic.HeavyHitters(0.02, kWindow);
  for (const auto& h : hitters) {
    // The reported estimate equals a fresh point query on level 0.
    EXPECT_EQ(h.estimate, dyadic.level(0).PointQuery(h.key, kWindow));
  }
  // Reported keys are distinct.
  std::vector<uint64_t> keys;
  for (const auto& h : hitters) keys.push_back(h.key);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}


// A 17-bit Zipf trace: heavy ranks scattered over the domain by an odd
// multiplier (a bijection mod 2^17), so heavy keys sit under different
// top-level prefixes.
constexpr int kWideBits = 17;
constexpr uint64_t kWideWindow = 40'000;

std::vector<StreamEvent> WideZipfTrace(uint64_t seed) {
  ZipfStream::Config zc;
  zc.domain = (1u << kWideBits) - 1;
  zc.skew = 1.2;
  zc.seed = seed;
  auto events = ZipfStream(zc).Take(60'000);
  for (auto& e : events) {
    e.key = (e.key * 0x9E3779B1ULL) & ((1u << kWideBits) - 1);
  }
  return events;
}

EcmConfig WideConfig(double epsilon, uint64_t seed) {
  auto cfg = EcmConfig::Create(epsilon, 0.05, WindowMode::kTimeBased,
                               kWideWindow, seed);
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

TEST(DyadicBoundTest, Theorem5ReportsEveryHeavyKey) {
  constexpr double kEpsilon = 0.02;
  const EcmConfig cfg = WideConfig(kEpsilon, 29);
  DyadicEcm<ExponentialHistogram> dyadic(kWideBits, cfg);
  ASSERT_LT(dyadic.sketch_levels(), kWideBits);  // exact levels in play
  const auto events = WideZipfTrace(31);
  for (const auto& e : events) dyadic.Add(e.key, e.ts);
  const Timestamp now = events.back().ts;
  const auto exact = ComputeExactRangeStats(events, now, kWideWindow);
  for (double phi : {0.005, 0.01, 0.03}) {
    std::set<uint64_t> found;
    for (const auto& h : dyadic.HeavyHitters(phi, kWideWindow)) {
      found.insert(h.key);
    }
    int heavy = 0;
    for (const auto& [key, count] : exact.freqs) {
      if (static_cast<double>(count) <
          (phi + kEpsilon) * static_cast<double>(exact.l1)) {
        continue;
      }
      ++heavy;
      EXPECT_TRUE(found.count(key)) << "phi " << phi << " key " << key
                                    << " count " << count;
    }
    EXPECT_GT(heavy, 0) << "phi " << phi;
  }
}

// Theorem 5's soundness side: Count-Min only overestimates, so a light
// key can pass the φ threshold, but w.h.p. no reported key's true count
// is below (φ − ε)·‖a_r‖₁ (φ ≤ ½). Every φ here exceeds ε, the regime
// where the ratio form separates heavy keys from light ones.
TEST(DyadicBoundTest, Theorem5ReportsNoLightKey) {
  constexpr double kEpsilon = 0.02;
  const EcmConfig cfg = WideConfig(kEpsilon, 29);
  DyadicEcm<ExponentialHistogram> dyadic(kWideBits, cfg);
  ASSERT_LT(dyadic.sketch_levels(), kWideBits);  // exact levels in play
  const auto events = WideZipfTrace(31);
  for (const auto& e : events) dyadic.Add(e.key, e.ts);
  const Timestamp now = events.back().ts;
  const auto exact = ComputeExactRangeStats(events, now, kWideWindow);
  const std::map<uint64_t, uint64_t> truth(exact.freqs.begin(),
                                           exact.freqs.end());
  for (double phi : {0.03, 0.05, 0.1}) {
    const auto hitters = dyadic.HeavyHitters(phi, kWideWindow);
    EXPECT_FALSE(hitters.empty()) << "phi " << phi;
    for (const auto& h : hitters) {
      const auto it = truth.find(h.key);
      const double count =
          it == truth.end() ? 0.0 : static_cast<double>(it->second);
      EXPECT_GE(count, (phi - kEpsilon) * static_cast<double>(exact.l1))
          << "phi " << phi << " key " << h.key << " estimate " << h.estimate;
    }
  }
}

TEST(DyadicBoundTest, RangeQueryWithinDecompositionBound) {
  const EcmConfig cfg = WideConfig(0.05, 37);
  DyadicEcm<ExponentialHistogram> dyadic(kWideBits, cfg);
  ASSERT_LT(dyadic.sketch_levels(), kWideBits);
  const auto events = WideZipfTrace(41);
  for (const auto& e : events) dyadic.Add(e.key, e.ts);
  const Timestamp now = events.back().ts;
  const auto exact = ComputeExactRangeStats(events, now, kWideWindow);
  const double l1 = static_cast<double>(exact.l1);
  // Each dyadic range with true count c contributes at most ε_sw·c of
  // window error, plus (1 + ε_sw)·ε_cm·‖a_r‖₁ of collisions on a sketch
  // level (w.h.p.); exact levels have no collisions.
  Rng rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    uint64_t lo = rng.Uniform(1u << kWideBits);
    uint64_t hi = lo + rng.Uniform((1u << kWideBits) - lo);
    double truth = 0.0;
    for (const auto& [key, count] : exact.freqs) {
      if (key >= lo && key <= hi) truth += static_cast<double>(count);
    }
    int sketch_ranges = 0;
    for (const DyadicRange& r : DyadicDecompose(lo, hi, kWideBits)) {
      if (r.level < dyadic.sketch_levels()) ++sketch_ranges;
    }
    const double bound =
        cfg.epsilon_sw * truth +
        sketch_ranges * (1.0 + cfg.epsilon_sw) * cfg.epsilon_cm * l1;
    const double est = dyadic.RangeQuery(lo, hi, kWideWindow);
    EXPECT_LE(std::abs(est - truth), bound + 1e-9)
        << "[" << lo << "," << hi << "] truth " << truth;
  }
}

}  // namespace
}  // namespace ecm
