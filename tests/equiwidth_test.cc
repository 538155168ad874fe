// Tests for the equi-width baseline counter: correct full-window counting,
// the unbounded-error failure mode on small ranges the paper criticizes,
// and its use inside an EcmSketch.

#include "bench/baselines/equiwidth_window.h"

#include <gtest/gtest.h>

#include "bench/baselines/baselines.h"
#include "src/core/ecm_sketch.h"
#include "src/window/counter_traits.h"

namespace ecm {
namespace {

static_assert(SlidingWindowCounter<EquiWidthWindow>);

TEST(EquiWidthWindowTest, EmptyEstimatesZero) {
  EquiWidthWindow ew({100, 10});
  EXPECT_EQ(ew.Estimate(50, 100), 0.0);
}

TEST(EquiWidthWindowTest, FullWindowRoughlyExact) {
  EquiWidthWindow ew({100, 10});
  for (Timestamp t = 1; t <= 100; ++t) ew.Add(t);
  EXPECT_NEAR(ew.Estimate(100, 100), 100.0, 12.0);
}

TEST(EquiWidthWindowTest, RingWrapExpiresOldEpochs) {
  EquiWidthWindow ew({100, 10});
  for (Timestamp t = 1; t <= 1000; ++t) ew.Add(t);
  // Only the last ~100 ticks should contribute.
  EXPECT_NEAR(ew.Estimate(1000, 100), 100.0, 15.0);
}

TEST(EquiWidthWindowTest, BoundaryInterpolationAssumesUniformity) {
  EquiWidthWindow ew({100, 4});  // 25-tick slots
  // All 100 arrivals at tick 1 (start of slot 0).
  ew.Add(1, 100);
  // Query range ending mid-slot: linear interpolation misattributes mass —
  // this is the guarantee-free behaviour the paper §2 points out.
  double est = ew.Estimate(20, 10);  // true answer: 0 (all mass at t=1)
  EXPECT_GT(est, 20.0);  // wildly overestimates
}

TEST(EquiWidthWindowTest, SmallRangeErrorUnboundedRelativeToAnswer) {
  EquiWidthWindow ew({1000, 8});  // 125-tick slots
  ExponentialHistogram eh({0.1, 1000});
  // Bursty mass early within each slot.
  Timestamp t = 1;
  for (int burst = 0; burst < 8; ++burst) {
    ew.Add(t, 1000);
    eh.Add(t, 1000);
    t += 125;
  }
  // One trailing arrival; query a range whose boundary falls *after* the
  // last burst but inside the burst's slot. True answer: 1. The uniform-
  // within-slot assumption bleeds most of the burst into the estimate.
  ew.Add(t, 1);
  eh.Add(t, 1);
  double truth = 1.0;
  uint64_t range = 101;  // boundary at t-101 = 900, burst was at 876
  double ew_err = std::abs(ew.Estimate(t, range) - truth);
  double eh_err = std::abs(eh.Estimate(t, range) - truth);
  EXPECT_GT(ew_err, 100.0);  // equi-width: boundary slot bleeds in
  EXPECT_LE(eh_err, 1.0);    // EH honours the epsilon guarantee
}

TEST(EquiWidthWindowTest, WorksInsideEcmSketch) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 3);
  ASSERT_TRUE(cfg.ok());
  EcmSketch<EquiWidthWindow> sketch(*cfg);
  for (Timestamp t = 1; t <= 500; ++t) sketch.Add(7, t);
  EXPECT_NEAR(sketch.PointQuery(7, 1000), 500.0, 80.0);
}

TEST(EquiWidthWindowTest, LifetimeTracksAllAdds) {
  EquiWidthWindow ew({100, 10});
  ew.Add(1, 5);
  ew.Add(50, 7);
  EXPECT_EQ(ew.lifetime_count(), 12u);
}

TEST(EquiWidthWindowTest, SpanRoundsUpSoRingCoversWindow) {
  // window % B != 0 with a floored span used to leave the (B+1)-slot ring
  // covering only (B+1)·floor(window/B) < window ticks: the ring wrapped
  // inside the window and silently overwrote in-window mass (window=100,
  // B=60 covered just 61 ticks, dropping ~40% of a uniform stream).
  EquiWidthWindow ew({100, 60});
  EXPECT_EQ(ew.span(), 2u);  // ceil(100/60), not floor = 1
  for (Timestamp t = 1; t <= 100; ++t) ew.Add(t);
  // Full coverage: only the boundary slot's interpolation (< one span of
  // mass) may be lost.
  EXPECT_NEAR(ew.Estimate(100, 100), 100.0, 2.0);
}

}  // namespace
}  // namespace ecm
