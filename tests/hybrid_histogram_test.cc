// Tests for the Qiao et al. hybrid-histogram baseline: exactness inside
// the recent buffer, demotion into the equi-width tail, the unbounded
// tail error the ECM paper's §2 cites, and EcmSketch integration.

#include "bench/baselines/hybrid_histogram.h"

#include <gtest/gtest.h>

#include "bench/baselines/baselines.h"
#include "src/core/ecm_sketch.h"
#include "src/util/random.h"
#include "src/window/counter_traits.h"

namespace ecm {
namespace {

static_assert(SlidingWindowCounter<HybridHistogram>);

TEST(HybridHistogramTest, EmptyEstimatesZero) {
  HybridHistogram hh({1000, 100, 8});
  EXPECT_EQ(hh.Estimate(500, 1000), 0.0);
}

TEST(HybridHistogramTest, ExactWithinRecentBuffer) {
  HybridHistogram hh({1000, 100, 8});
  // Strictly inside the exact span (ts > last - exact_len = 900), so
  // nothing demotes to the tail.
  for (Timestamp t = 910; t <= 1000; t += 10) hh.Add(t, 3);
  EXPECT_EQ(hh.Estimate(1000, 50), 15.0);   // t in (950, 1000]: 5 runs
  EXPECT_EQ(hh.Estimate(1000, 95), 30.0);   // t in (905, 1000]: all 10
}

TEST(HybridHistogramTest, DemotesToTailAndKeepsTotals) {
  HybridHistogram hh({1000, 100, 8});
  for (Timestamp t = 1; t <= 800; ++t) hh.Add(t);
  // Only ~the exact_len newest stay exact.
  EXPECT_LE(hh.ExactRuns(), 101u);
  // Full-window estimate still near the truth (interpolation noise only).
  EXPECT_NEAR(hh.Estimate(800, 1000), 800.0, 120.0);
}

TEST(HybridHistogramTest, TailBoundaryErrorUnbounded) {
  HybridHistogram hh({1000, 50, 4});  // tail slots span ~237 ticks
  // Burst deep in the tail region.
  hh.Add(10, 1000);
  hh.Add(700, 1);
  // Query range ending inside the burst's slot but after the burst: the
  // truth is 1, the interpolated answer inherits burst mass.
  double est = hh.Estimate(700, 650);  // boundary at 50, burst at 10
  EXPECT_GT(std::abs(est - 1.0), 100.0);
}

TEST(HybridHistogramTest, ExpiryDropsOldTailSlots) {
  HybridHistogram hh({1000, 100, 8});
  for (Timestamp t = 1; t <= 5000; ++t) hh.Add(t);
  EXPECT_NEAR(hh.Estimate(5000, 1000), 1000.0, 200.0);
  EXPECT_LT(hh.MemoryBytes(), 8192u);
}

TEST(HybridHistogramTest, LifetimeExact) {
  HybridHistogram hh({1000, 100, 8});
  Rng rng(3);
  Timestamp t = 1;
  uint64_t total = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.Uniform(3);
    uint64_t c = 1 + rng.Uniform(4);
    hh.Add(t, c);
    total += c;
  }
  EXPECT_EQ(hh.lifetime_count(), total);
}

TEST(HybridHistogramTest, WorksInsideEcmSketch) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 5);
  ASSERT_TRUE(cfg.ok());
  EcmSketch<HybridHistogram> sketch(*cfg);
  for (Timestamp t = 1; t <= 500; ++t) sketch.Add(9, t);
  EXPECT_NEAR(sketch.PointQuery(9, 1000), 500.0, 80.0);
  // Recent ranges hit the exact buffer: tight.
  EXPECT_NEAR(sketch.PointQuery(9, 40), 40.0, 5.0);
}

TEST(HybridHistogramTest, TailSpanRoundsUpSoRingCoversWindow) {
  // (window - exact_len) % B != 0 with a floored span used to leave the
  // tail ring covering less than the tail region: in-window demoted mass
  // was silently overwritten on wrap (window=100, exact=10, B=60 covered
  // 61 of the 90 tail ticks).
  HybridHistogram hh({100, 10, 60});
  EXPECT_EQ(hh.span(), 2u);  // ceil(90/60), not floor = 1
  for (Timestamp t = 1; t <= 100; ++t) hh.Add(t);
  EXPECT_NEAR(hh.Estimate(100, 100), 100.0, 2.0);
}

TEST(HybridHistogramTest, ExactWithinBufferEvenWhenTailSlotsStraddle) {
  // A tail slot is wider than the gap between the demotion watermark and
  // a query boundary inside the exact region; the watermark-clamped
  // interpolation must keep all tail mass out of the exact region.
  HybridHistogram hh({10000, 500, 16});  // span 594 > exact_len - range
  for (Timestamp t = 1; t <= 9000; ++t) hh.Add(t, 2);
  for (uint64_t range : {100u, 250u, 499u}) {
    EXPECT_EQ(hh.Estimate(9000, range), static_cast<double>(2 * range))
        << "range " << range;
  }
}

TEST(HybridHistogramTest, WatermarkTracksExpireAheadOfAdds) {
  // Expire(now) may demote with a clock ahead of the last Add; the tail
  // interpolation watermark must follow the actual demotion, not
  // last_timestamp(), or boundary slots holding freshly demoted mass get
  // clamped to zero.
  HybridHistogram hh({100, 10, 9});  // span 10
  for (Timestamp t = 1; t <= 50; ++t) hh.Add(t);
  hh.Expire(59);  // demotes ts <= 49 into the tail
  // (40, 59] holds ts 41..50 = 10 arrivals; 41..49 sit in the tail slot
  // [40, 50), which a stale watermark of 40 would zero out entirely.
  EXPECT_NEAR(hh.Estimate(59, 19), 10.0, 1.5);
}

TEST(HybridHistogramTest, RandomAgainstReference) {
  HybridHistogram hh({10000, 500, 16});
  std::vector<Timestamp> stamps;
  Rng rng(7);
  Timestamp t = 1;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(3);
    hh.Add(t);
    stamps.push_back(t);
  }
  // Recent ranges: exact. Tail ranges: within a slot of the truth.
  for (uint64_t range : {100u, 400u}) {
    Timestamp boundary = WindowStart(t, range);
    uint64_t truth = 0;
    for (Timestamp s : stamps) {
      if (s > boundary) ++truth;
    }
    EXPECT_EQ(hh.Estimate(t, range), static_cast<double>(truth))
        << "range " << range;
  }
  for (uint64_t range : {2000u, 10000u}) {
    Timestamp boundary = WindowStart(t, range);
    uint64_t truth = 0;
    for (Timestamp s : stamps) {
      if (s > boundary) ++truth;
    }
    // Slot span ~594; uniform arrivals make interpolation decent here.
    EXPECT_NEAR(hh.Estimate(t, range), static_cast<double>(truth), 600.0)
        << "range " << range;
  }
}

}  // namespace
}  // namespace ecm
