// Tests for the randomized wave: exactness while level 0 is complete, the
// (ε, δ) property over seeds (failure-rate counting), memory scaling in
// 1/ε², determinism per seed, and serialization.

#include "src/window/randomized_wave.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/random.h"

namespace ecm {
namespace {

TEST(RandomizedWaveTest, EmptyEstimatesZero) {
  RandomizedWave rw;
  EXPECT_EQ(rw.Estimate(50, 100), 0.0);
}

TEST(RandomizedWaveTest, ExactWhileLevelZeroComplete) {
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.2;  // capacity 100 per level
  cfg.window_len = 1000;
  cfg.max_arrivals = 1 << 12;
  RandomizedWave rw(cfg);
  for (Timestamp t = 1; t <= 50; ++t) rw.Add(t);
  EXPECT_EQ(rw.Estimate(50, 1000), 50.0);
  EXPECT_EQ(rw.Estimate(50, 10), 10.0);
}

TEST(RandomizedWaveTest, DeterministicPerSeed) {
  RandomizedWave::Config cfg;
  cfg.seed = 77;
  cfg.window_len = 10000;
  RandomizedWave a(cfg), b(cfg);
  for (Timestamp t = 1; t <= 5000; ++t) {
    a.Add(t);
    b.Add(t);
  }
  EXPECT_EQ(a.Estimate(5000, 2000), b.Estimate(5000, 2000));
}

TEST(RandomizedWaveTest, SubwaveCountGrowsWithDelta) {
  RandomizedWave::Config loose;
  loose.delta = 0.4;
  RandomizedWave::Config tight = loose;
  tight.delta = 0.01;
  EXPECT_LT(RandomizedWave(loose).num_subwaves(),
            RandomizedWave(tight).num_subwaves());
}

TEST(RandomizedWaveTest, MemoryScalesInverseEpsilonSquared) {
  RandomizedWave::Config a;
  a.epsilon = 0.2;
  a.window_len = 1 << 20;
  a.max_arrivals = 1 << 20;
  RandomizedWave::Config b = a;
  b.epsilon = 0.05;  // 4x tighter -> ~16x the sample capacity
  RandomizedWave wa(a), wb(b);
  for (Timestamp t = 1; t <= 200000; ++t) {
    wa.Add(t);
    wb.Add(t);
  }
  EXPECT_GT(wb.MemoryBytes(), wa.MemoryBytes() * 6);
}

// (ε, δ) property: across many seeds, the fraction of estimates outside
// (1±ε)·truth must be below δ (with slack for the test's finite sample).
TEST(RandomizedWaveTest, EpsilonDeltaGuaranteeAcrossSeeds) {
  constexpr double kEps = 0.15;
  constexpr double kDelta = 0.2;
  constexpr int kTrials = 60;
  int failures = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    RandomizedWave::Config cfg;
    cfg.epsilon = kEps;
    cfg.delta = kDelta;
    cfg.window_len = 1 << 20;
    cfg.max_arrivals = 1 << 18;
    cfg.seed = 1000 + trial;
    RandomizedWave rw(cfg);
    Rng rng(trial);
    Timestamp t = 1;
    std::vector<Timestamp> stamps;
    for (int i = 0; i < 30000; ++i) {
      t += rng.Uniform(3);
      rw.Add(t);
      stamps.push_back(t);
    }
    uint64_t range = 5000;
    Timestamp boundary = WindowStart(t, range);
    uint64_t truth = 0;
    for (Timestamp s : stamps) {
      if (s > boundary) ++truth;
    }
    double est = rw.Estimate(t, range);
    if (std::abs(est - static_cast<double>(truth)) >
        kEps * static_cast<double>(truth) + 1.0) {
      ++failures;
    }
  }
  EXPECT_LE(failures, static_cast<int>(kTrials * kDelta) + 3)
      << failures << "/" << kTrials << " trials outside the epsilon band";
}

struct RwSweepParam {
  double epsilon;
  uint64_t range;
};

class RwErrorSweep : public ::testing::TestWithParam<RwSweepParam> {};

TEST_P(RwErrorSweep, TypicalErrorNearEpsilon) {
  const RwSweepParam p = GetParam();
  RandomizedWave::Config cfg;
  cfg.epsilon = p.epsilon;
  cfg.delta = 0.05;
  cfg.window_len = 1 << 20;
  cfg.max_arrivals = 1 << 18;
  cfg.seed = static_cast<uint64_t>(p.epsilon * 1e4) + p.range;
  RandomizedWave rw(cfg);
  Rng rng(11);
  Timestamp t = 1;
  std::vector<Timestamp> stamps;
  for (int i = 0; i < 40000; ++i) {
    t += rng.Uniform(4);
    rw.Add(t);
    stamps.push_back(t);
  }
  Timestamp boundary = WindowStart(t, p.range);
  uint64_t truth = 0;
  for (Timestamp s : stamps) {
    if (s > boundary) ++truth;
  }
  double est = rw.Estimate(t, p.range);
  // Median-of-subwaves at delta=0.05: allow 2x the epsilon band.
  EXPECT_LE(std::abs(est - static_cast<double>(truth)),
            2.0 * p.epsilon * static_cast<double>(truth) + 2.0)
      << "truth=" << truth << " est=" << est;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RwErrorSweep,
    ::testing::Values(RwSweepParam{0.1, 1000}, RwSweepParam{0.1, 10000},
                      RwSweepParam{0.1, 50000}, RwSweepParam{0.2, 10000},
                      RwSweepParam{0.3, 10000}, RwSweepParam{0.05, 20000}));

TEST(RandomizedWaveTest, SerializeRoundTrip) {
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.2;
  cfg.window_len = 5000;
  cfg.max_arrivals = 1 << 14;
  cfg.seed = 5;
  RandomizedWave rw(cfg);
  Rng rng(6);
  Timestamp t = 1;
  for (int i = 0; i < 10000; ++i) {
    t += rng.Uniform(2);
    rw.Add(t);
  }
  ByteWriter w;
  rw.SerializeTo(&w);
  ByteReader r(w.bytes());
  RandomizedWave back;
  ASSERT_TRUE(back.DecodeFrom(&r).ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.lifetime_count(), rw.lifetime_count());
  EXPECT_EQ(back.num_subwaves(), rw.num_subwaves());
  for (uint64_t range : {500u, 2000u, 5000u}) {
    EXPECT_EQ(back.Estimate(t, range), rw.Estimate(t, range));
  }
}

TEST(RandomizedWaveTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk = {0x00, 0x01, 0x02, 0x03};
  ByteReader r(junk.data(), junk.size());
  RandomizedWave back;
  EXPECT_FALSE(back.DecodeFrom(&r).ok());
}

TEST(RandomizedWaveTest, DeserializeRejectsOverCapacityLevel) {
  // A hostile header claiming more retained samples than the level
  // capacity must be rejected, not allowed to inflate sizes[] (and with
  // it the truncated-coverage fallback estimate).
  ByteWriter w;
  w.PutFixed<uint8_t>(0xB7);  // magic
  w.PutDouble(0.5);           // epsilon -> capacity 16
  w.PutDouble(0.1);           // delta
  w.PutVarint(100);           // window_len
  w.PutVarint(16);            // level_capacity
  w.PutVarint(1);             // num_levels
  w.PutVarint(1);             // num_subwaves
  w.PutVarint(20);            // lifetime
  w.PutVarint(20);            // last_ts
  w.PutFixed<uint8_t>(0);     // level 0: not truncated
  w.PutVarint(20);            // 20 samples > capacity 16
  for (int i = 0; i < 20; ++i) w.PutVarint(1);
  ByteReader r(w.bytes());
  RandomizedWave back;
  EXPECT_FALSE(back.DecodeFrom(&r).ok());
}

TEST(RandomizedWaveTest, ExpiryKeepsWindowEstimatesSane) {
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.1;
  cfg.window_len = 1000;
  cfg.max_arrivals = 1 << 16;
  RandomizedWave rw(cfg);
  for (Timestamp t = 1; t <= 20000; ++t) rw.Add(t);
  double est = rw.Estimate(20000, 1000);
  EXPECT_NEAR(est, 1000.0, 300.0);
}

}  // namespace
}  // namespace ecm
