// Tests for the ECM-sketch core: point queries under the Theorem-1/3
// bound across counter types and workloads (parameterized sweeps),
// count-based semantics, no-false-negative direction of Count-Min, L1
// estimation (§6.1), clock advancement and memory accounting.

#include "src/core/ecm_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <vector>

#include "src/stream/generators.h"
#include "src/util/random.h"

namespace ecm {
namespace {

EcmConfig TestConfig(double eps, double delta, uint64_t window,
                     WindowMode mode = WindowMode::kTimeBased) {
  auto cfg = EcmConfig::Create(eps, delta, mode, window, /*seed=*/1234);
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

TEST(EcmSketchTest, EmptySketchAnswersZero) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  EXPECT_EQ(sketch.PointQuery(42, 1000), 0.0);
  EXPECT_EQ(sketch.SelfJoin(1000), 0.0);
  EXPECT_EQ(sketch.EstimateL1(1000), 0.0);
}

TEST(EcmSketchTest, SingleKeyExact) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  for (Timestamp t = 1; t <= 100; ++t) sketch.Add(7, t);
  EXPECT_NEAR(sketch.PointQuery(7, 1000), 100.0, 100 * 0.1 + 1);
  EXPECT_EQ(sketch.l1_lifetime(), 100u);
}

TEST(EcmSketchTest, WeightedAdds) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  sketch.Add(7, 10, 50);
  sketch.Add(9, 20, 5);
  EXPECT_NEAR(sketch.PointQuery(7, 1000), 50.0, 6.0);
  EXPECT_EQ(sketch.l1_lifetime(), 55u);
}

TEST(EcmSketchTest, CreateComputesDimensions) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 500, 9);
  ASSERT_TRUE(sketch.ok());
  EXPECT_GT(sketch->config().width, 0u);
  EXPECT_EQ(sketch->config().depth, 3);
  EXPECT_EQ(sketch->NumCounters(),
            static_cast<size_t>(sketch->config().width) * 3);
}

TEST(EcmSketchTest, CreateRejectsBadEpsilon) {
  EXPECT_FALSE(EcmEh::Create(0.0, 0.1, WindowMode::kTimeBased, 500, 9).ok());
}

// The central accuracy property (Theorems 1 and 3): for every distinct
// in-range key, |est - truth| <= eps * ||a_r||_1 (allowing a small count
// of probabilistic violations and rounding slack).
template <typename Counter>
struct SketchSweepCase {
  using CounterType = Counter;
};

struct SweepSpec {
  double epsilon;
  double skew;
  uint64_t range;
};

template <typename Counter>
void RunPointQuerySweep(const SweepSpec& spec) {
  constexpr uint64_t kWindow = 100000;
  auto sketch = EcmSketch<Counter>::Create(
      spec.epsilon, 0.1, WindowMode::kTimeBased, kWindow, 555,
      OptimizeFor::kPointQueries, /*max_arrivals=*/1 << 18);
  ASSERT_TRUE(sketch.ok());

  ZipfStream::Config zc;
  zc.domain = 5000;
  zc.skew = spec.skew;
  zc.events_per_tick = 1.0;
  zc.seed = 99;
  ZipfStream stream(zc);
  std::vector<StreamEvent> events = stream.Take(60000);
  for (const auto& e : events) sketch->Add(e.key, e.ts);

  Timestamp now = events.back().ts;
  ExactRangeStats exact = ComputeExactRangeStats(events, now, spec.range);
  ASSERT_GT(exact.l1, 0u);
  double budget = spec.epsilon * static_cast<double>(exact.l1) + 2.0;
  size_t violations = 0;
  for (const auto& [key, count] : exact.freqs) {
    double est = sketch->PointQueryAt(key, spec.range, now);
    if (std::abs(est - static_cast<double>(count)) > budget) ++violations;
  }
  // delta = 0.1; allow slightly more for finite-sample noise.
  EXPECT_LE(violations, exact.freqs.size() / 8 + 2)
      << violations << "/" << exact.freqs.size() << " beyond the bound";
}

class EcmEhPointSweep : public ::testing::TestWithParam<SweepSpec> {};
TEST_P(EcmEhPointSweep, Theorem1Bound) {
  RunPointQuerySweep<ExponentialHistogram>(GetParam());
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, EcmEhPointSweep,
    ::testing::Values(SweepSpec{0.05, 1.0, 10000}, SweepSpec{0.1, 1.0, 10000},
                      SweepSpec{0.25, 1.0, 10000}, SweepSpec{0.1, 0.5, 10000},
                      SweepSpec{0.1, 1.3, 10000}, SweepSpec{0.1, 1.0, 1000},
                      SweepSpec{0.1, 1.0, 100000}));

class EcmDwPointSweep : public ::testing::TestWithParam<SweepSpec> {};
TEST_P(EcmDwPointSweep, Theorem1Bound) {
  RunPointQuerySweep<DeterministicWave>(GetParam());
}
INSTANTIATE_TEST_SUITE_P(Sweep, EcmDwPointSweep,
                         ::testing::Values(SweepSpec{0.1, 1.0, 10000},
                                           SweepSpec{0.25, 0.8, 5000},
                                           SweepSpec{0.05, 1.0, 50000}));

class EcmRwPointSweep : public ::testing::TestWithParam<SweepSpec> {};
TEST_P(EcmRwPointSweep, Theorem3Bound) {
  RunPointQuerySweep<RandomizedWave>(GetParam());
}
INSTANTIATE_TEST_SUITE_P(Sweep, EcmRwPointSweep,
                         ::testing::Values(SweepSpec{0.1, 1.0, 10000},
                                           SweepSpec{0.2, 1.0, 5000}));

TEST(EcmSketchTest, ExactCounterIsolatesCmError) {
  // With exact windows, the only error source is hashing: estimates never
  // fall below the truth.
  EcmExact sketch(TestConfig(0.1, 0.05, 100000));
  ZipfStream::Config zc;
  zc.domain = 2000;
  zc.skew = 1.0;
  zc.seed = 31;
  ZipfStream stream(zc);
  auto events = stream.Take(20000);
  for (const auto& e : events) sketch.Add(e.key, e.ts);
  Timestamp now = events.back().ts;
  auto exact = ComputeExactRangeStats(events, now, 100000);
  for (const auto& [key, count] : exact.freqs) {
    EXPECT_GE(sketch.PointQueryAt(key, 100000, now) + 1e-9,
              static_cast<double>(count));
  }
}

TEST(EcmSketchTest, CountBasedLastNArrivals) {
  auto cfg = TestConfig(0.05, 0.05, /*window=*/500, WindowMode::kCountBased);
  EcmSketch<ExponentialHistogram> sketch(cfg);
  // 2000 arrivals; the final 500 are all key 9.
  for (int i = 0; i < 1500; ++i) sketch.Add(1, /*ts ignored*/ 0);
  for (int i = 0; i < 500; ++i) sketch.Add(9, 0);
  double est9 = sketch.PointQuery(9, 500);
  double est1 = sketch.PointQuery(1, 500);
  EXPECT_NEAR(est9, 500.0, 500 * 0.06 + 1);
  EXPECT_LE(est1, 500 * 0.06 + 1);  // key 1 left the window
}

TEST(EcmSketchTest, CountBasedPartialWindow) {
  auto cfg = TestConfig(0.05, 0.05, 1000, WindowMode::kCountBased);
  EcmSketch<ExponentialHistogram> sketch(cfg);
  for (int i = 0; i < 600; ++i) sketch.Add(i % 2 ? 5 : 6, 0);
  // Of the last 100 arrivals, 50 are key 5.
  EXPECT_NEAR(sketch.PointQuery(5, 100), 50.0, 50 * 0.06 + 2);
}

TEST(EcmSketchTest, EstimateL1TracksWindowVolume) {
  EcmEh sketch(TestConfig(0.1, 0.1, 10000));
  ZipfStream::Config zc;
  zc.domain = 1000;
  zc.skew = 1.0;
  zc.seed = 13;
  ZipfStream stream(zc);
  auto events = stream.Take(30000);
  for (const auto& e : events) sketch.Add(e.key, e.ts);
  Timestamp now = events.back().ts;
  auto exact = ComputeExactRangeStats(events, now, 10000);
  double est = sketch.EstimateL1At(10000, now);
  EXPECT_NEAR(est, static_cast<double>(exact.l1), exact.l1 * 0.12 + 2);
}

TEST(EcmSketchTest, AdvanceToExpiresContent) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  for (Timestamp t = 1; t <= 500; ++t) sketch.Add(3, t);
  size_t before = sketch.MemoryBytes();
  sketch.AdvanceTo(10000);  // everything slides out
  EXPECT_EQ(sketch.PointQuery(3, 1000), 0.0);
  // The flat bucket arenas are retained for reuse (expiry never touches
  // the allocator), so the footprint stays flat rather than shrinking.
  EXPECT_LE(sketch.MemoryBytes(), before);
}

TEST(EcmSketchTest, RangeQueriesAreMonotoneInRange) {
  EcmEh sketch(TestConfig(0.1, 0.1, 100000));
  Rng rng(21);
  Timestamp t = 1;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(3);
    sketch.Add(rng.Uniform(100), t);
  }
  // Larger ranges cover supersets; estimates should not decrease (modulo
  // half-bucket noise on the boundary).
  double prev = 0.0;
  for (uint64_t range : {100ULL, 1000ULL, 10000ULL, 100000ULL}) {
    double est = sketch.PointQuery(5, range);
    EXPECT_GE(est, prev * 0.9);
    prev = est;
  }
}

TEST(EcmSketchTest, MemoryDominatedByCounters) {
  EcmEh sketch(TestConfig(0.1, 0.1, 100000));
  size_t empty_mem = sketch.MemoryBytes();
  Rng rng(2);
  Timestamp t = 1;
  for (int i = 0; i < 50000; ++i) {
    t += rng.Uniform(2);
    sketch.Add(rng.Uniform(10000), t);
  }
  EXPECT_GT(sketch.MemoryBytes(), empty_mem);
}

TEST(EcmSketchTest, RowEstimatesSumToL1PerRow) {
  EcmEh sketch(TestConfig(0.1, 0.1, 100000));
  for (Timestamp t = 1; t <= 1000; ++t) sketch.Add(t % 50, t);
  for (int row = 0; row < sketch.config().depth; ++row) {
    std::vector<double> estimates(sketch.config().width);
    sketch.EstimateRowAt(row, 100000, sketch.Now(), estimates.data());
    double sum = 0.0;
    for (double v : estimates) sum += v;
    EXPECT_NEAR(sum, 1000.0, 1000 * 0.1 + 2);
  }
}

TEST(EcmSketchTest, DeterministicAcrossIdenticalRuns) {
  auto build = [] {
    EcmEh sketch(TestConfig(0.1, 0.1, 10000));
    for (Timestamp t = 1; t <= 5000; ++t) sketch.Add(t * 17 % 300, t);
    return sketch;
  };
  EcmEh a = build(), b = build();
  for (uint64_t key = 0; key < 300; ++key) {
    EXPECT_EQ(a.PointQuery(key, 10000), b.PointQuery(key, 10000));
  }
}

}  // namespace
}  // namespace ecm
