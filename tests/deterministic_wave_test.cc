// Tests for the deterministic wave: exactness at level 0, the ε property
// under sweeps, level provisioning from u(N,S), bucket-log reconstruction,
// and serialization.

#include "src/window/deterministic_wave.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/random.h"

namespace ecm {
namespace {

class ExactCounter {
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

TEST(DeterministicWaveTest, EmptyEstimatesZero) {
  DeterministicWave dw({0.1, 100, 1000});
  EXPECT_EQ(dw.Estimate(50, 100), 0.0);
}

TEST(DeterministicWaveTest, ExactForSmallStreams) {
  // While level 0 still holds every arrival, queries are exact.
  DeterministicWave dw({0.2, 1000, 1 << 16});
  for (Timestamp t = 1; t <= 5; ++t) dw.Add(t);
  EXPECT_EQ(dw.Estimate(5, 1000), 5.0);
  EXPECT_EQ(dw.Estimate(5, 2), 2.0);
}

TEST(DeterministicWaveTest, LevelProvisioningGrowsWithBound) {
  DeterministicWave small({0.1, 100, 100});
  DeterministicWave large({0.1, 100, 1 << 24});
  EXPECT_LT(small.num_levels(), large.num_levels());
}

TEST(DeterministicWaveTest, FullWindowQuery) {
  DeterministicWave dw({0.1, 1 << 20, 1 << 20});
  for (Timestamp t = 1; t <= 20000; ++t) dw.Add(t);
  double est = dw.Estimate(20000, 1 << 20);
  EXPECT_NEAR(est, 20000.0, 20000.0 * 0.1 + 1.0);
}

TEST(DeterministicWaveTest, ExpiryRespectsWindow) {
  DeterministicWave dw({0.1, 100, 1 << 16});
  for (Timestamp t = 1; t <= 1000; ++t) dw.Add(t);
  double est = dw.Estimate(1000, 100);
  EXPECT_NEAR(est, 100.0, 100.0 * 0.1 + 1.0);
}

TEST(DeterministicWaveTest, EstimateAtAdvancedClock) {
  DeterministicWave dw({0.1, 100, 1 << 16});
  for (Timestamp t = 1; t <= 60; ++t) dw.Add(t);
  double est = dw.Estimate(120, 100);
  EXPECT_NEAR(est, 40.0, 40.0 * 0.1 + 1.0);
}

TEST(DeterministicWaveTest, MemoryIndependentOfStreamLength) {
  DeterministicWave dw({0.1, 1u << 20, 1 << 20});
  for (Timestamp t = 1; t <= 1000; ++t) dw.Add(t);
  size_t early = dw.MemoryBytes();
  for (Timestamp t = 1001; t <= 100000; ++t) dw.Add(t);
  size_t late = dw.MemoryBytes();
  EXPECT_LT(late, early * 3);  // bounded by levels × capacity
}

struct DwSweepParam {
  double epsilon;
  int burst;
  uint64_t gap_max;
};

class DwErrorSweep : public ::testing::TestWithParam<DwSweepParam> {};

TEST_P(DwErrorSweep, ErrorWithinEpsilon) {
  const DwSweepParam p = GetParam();
  constexpr uint64_t kWindow = 50000;
  DeterministicWave dw({p.epsilon, kWindow, 1 << 20});
  ExactCounter exact;
  Rng rng(static_cast<uint64_t>(p.epsilon * 1000) + p.burst);

  Timestamp t = 1;
  for (int i = 0; i < 30000; ++i) {
    t += 1 + rng.Uniform(p.gap_max);
    uint64_t count = 1 + rng.Uniform(p.burst);
    dw.Add(t, count);
    exact.Add(t, count);
  }
  for (uint64_t range :
       {uint64_t{100}, uint64_t{1000}, uint64_t{10000}, kWindow}) {
    double est = dw.Estimate(t, range);
    double truth = static_cast<double>(exact.Count(t, range));
    EXPECT_LE(std::abs(est - truth), p.epsilon * truth + 1.0)
        << "range=" << range << " truth=" << truth << " est=" << est;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DwErrorSweep,
    ::testing::Values(DwSweepParam{0.01, 1, 3}, DwSweepParam{0.05, 1, 3},
                      DwSweepParam{0.1, 1, 3}, DwSweepParam{0.25, 1, 3},
                      DwSweepParam{0.1, 8, 1}, DwSweepParam{0.1, 64, 10},
                      DwSweepParam{0.05, 16, 100}));

TEST(DeterministicWaveTest, BucketsReconstructTheStreamApproximately) {
  DeterministicWave dw({0.1, 100000, 1 << 16});
  for (Timestamp t = 1; t <= 3000; ++t) dw.Add(t);
  auto buckets = dw.Buckets();
  ASSERT_FALSE(buckets.empty());
  uint64_t total = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    total += buckets[i].size;
    EXPECT_LE(buckets[i].start, buckets[i].end);
    if (i > 0) {
      EXPECT_GE(buckets[i].start, buckets[i - 1].start);
    }
  }
  // The bucket log covers the retained suffix of the stream; its total is
  // within the wave's uncertainty of the true in-window count.
  EXPECT_GT(total, 2500u);
  EXPECT_LE(total, 3000u);
}

TEST(DeterministicWaveTest, SerializeRoundTrip) {
  DeterministicWave dw({0.1, 5000, 1 << 16});
  Rng rng(9);
  Timestamp t = 1;
  for (int i = 0; i < 8000; ++i) {
    t += rng.Uniform(3);
    dw.Add(t);
  }
  ByteWriter w;
  dw.SerializeTo(&w);
  ByteReader r(w.bytes());
  DeterministicWave back;
  ASSERT_TRUE(back.DecodeFrom(&r).ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.lifetime_count(), dw.lifetime_count());
  EXPECT_EQ(back.num_levels(), dw.num_levels());
  for (uint64_t range : {100u, 1000u, 5000u}) {
    EXPECT_EQ(back.Estimate(t, range), dw.Estimate(t, range));
  }
}

TEST(DeterministicWaveTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk = {0x42, 0x00};
  ByteReader r(junk.data(), junk.size());
  DeterministicWave back;
  EXPECT_FALSE(back.DecodeFrom(&r).ok());
}

TEST(DeterministicWaveTest, DegradesGracefullyBeyondProvisionedBound) {
  // Exceeding u(N,S) must not crash; coverage shrinks to the suffix the
  // provisioned levels can span (underestimation), which is why the paper
  // — and our workloads — use deliberately conservative bounds. Queries
  // within the covered suffix remain epsilon-accurate.
  DeterministicWave dw({0.1, 1 << 20, 256});
  for (Timestamp t = 1; t <= 10000; ++t) dw.Add(t);
  double full = dw.Estimate(10000, 1 << 20);
  EXPECT_GT(full, 0.0);
  EXPECT_LE(full, 10000.0);
  double recent = dw.Estimate(10000, 100);
  EXPECT_NEAR(recent, 100.0, 100.0 * 0.1 + 1.0);
}

}  // namespace
}  // namespace ecm
