// Tests for scheduled propagation: push triggering (periodic and
// drift-based), coordinator staleness bounds, and the bandwidth/freshness
// trade-off the structure exists for.

#include "src/dist/periodic.h"

#include <gtest/gtest.h>

#include "src/stream/generators.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 50'000;

EcmConfig SketchCfg(uint64_t seed = 41) {
  auto cfg = EcmConfig::Create(0.05, 0.05, WindowMode::kTimeBased, kWindow,
                               seed);
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

TEST(PeriodicAggregatorTest, GlobalPointQueryNeedsAllSites) {
  PeriodicAggregator agg(3, SketchCfg(), {});
  agg.Process(0, 1, 10);
  // Sites 1 and 2 never pushed.
  EXPECT_FALSE(agg.GlobalPointQuery(1, kWindow).ok());
  ASSERT_TRUE(agg.SyncAll().ok());
  auto est = agg.GlobalPointQuery(1, kWindow);
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_GE(*est, 1.0);
}

TEST(PeriodicAggregatorTest, FirstArrivalAlwaysPushes) {
  PeriodicAggregator agg(2, SketchCfg(), {});
  EXPECT_TRUE(agg.Process(0, 1, 5));
  EXPECT_TRUE(agg.Process(1, 1, 6));
  EXPECT_FALSE(agg.Process(0, 1, 7));  // no schedule configured
  EXPECT_EQ(agg.stats().pushes, 2u);
}

TEST(PeriodicAggregatorTest, PeriodicPushCadence) {
  PeriodicAggregator::Config cfg;
  cfg.period = 1'000;
  PeriodicAggregator agg(1, SketchCfg(), cfg);
  for (Timestamp t = 1; t <= 10'000; t += 10) agg.Process(0, 7, t);
  // 1 initial push + one per 1000 ticks over 10k ticks.
  EXPECT_GE(agg.stats().pushes, 10u);
  EXPECT_LE(agg.stats().pushes, 12u);
  EXPECT_GE(agg.stats().periodic_pushes, 9u);
}

TEST(PeriodicAggregatorTest, DriftPushTracksContentChange) {
  PeriodicAggregator::Config cfg;
  cfg.drift_fraction = 0.5;  // push when windowed L1 moves by 50%
  PeriodicAggregator agg(1, SketchCfg(), cfg);
  // Steady growth: pushes happen at ~L1 = 1, 1.5, 2.25, ... (geometric).
  for (Timestamp t = 1; t <= 2'000; ++t) agg.Process(0, 3, t);
  uint64_t pushes = agg.stats().pushes;
  EXPECT_GE(pushes, 5u);
  EXPECT_LE(pushes, 30u);  // far fewer than 2000 updates
  EXPECT_GE(agg.stats().drift_pushes, pushes - 2);
}

TEST(PeriodicAggregatorTest, CoordinatorViewApproximatesTruth) {
  PeriodicAggregator::Config cfg;
  cfg.period = 2'000;
  constexpr int kSites = 4;
  PeriodicAggregator agg(kSites, SketchCfg(), cfg);
  ZipfStream::Config zc;
  zc.domain = 300;
  zc.skew = 1.0;
  zc.num_nodes = kSites;
  zc.seed = 17;
  ZipfStream stream(zc);
  auto events = stream.Take(30'000);
  for (const auto& e : events) agg.Process(e.node, e.key, e.ts);
  ASSERT_TRUE(agg.SyncAll().ok());

  Timestamp now = events.back().ts;
  auto exact = ComputeExactRangeStats(events, now, kWindow);
  int checked = 0;
  for (const auto& [key, count] : exact.freqs) {
    if (count < exact.l1 / 100) continue;
    auto est = agg.GlobalPointQuery(key, kWindow);
    ASSERT_TRUE(est.ok());
    EXPECT_NEAR(*est, static_cast<double>(count), 0.2 * exact.l1 + 3.0)
        << "key " << key;
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

TEST(PeriodicAggregatorTest, StalenessBoundedByPeriod) {
  // Without a final SyncAll, the coordinator's view lags by at most one
  // period per site: a key that exploded in the last period is
  // under-reported, then correct after SyncAll.
  PeriodicAggregator::Config cfg;
  cfg.period = 5'000;
  PeriodicAggregator agg(1, SketchCfg(), cfg);
  for (Timestamp t = 1; t <= 6'000; ++t) agg.Process(0, 1, t);
  // Hot burst entirely after the last scheduled push.
  Timestamp t = 6'000;
  for (int i = 0; i < 1'000; ++i) agg.Process(0, 99, ++t);
  auto stale = agg.GlobalPointQuery(99, kWindow);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(agg.SyncAll().ok());
  auto fresh = agg.GlobalPointQuery(99, kWindow);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(*stale, *fresh);
  EXPECT_NEAR(*fresh, 1'000.0, 100.0);
}

TEST(PeriodicAggregatorTest, QuietSiteArrivalsExpireAtTheRunClock) {
  // Site 0 goes quiet after its snapshot; site 1 runs on past the window
  // but pushed only once, early. Both snapshot clocks lag the run by more
  // than a window, so only the run's clock expires site 0's arrivals.
  PeriodicAggregator agg(2, SketchCfg(), {});
  for (Timestamp t = 1; t <= 1'000; ++t) agg.Process(0, 7, t);
  ASSERT_TRUE(agg.SyncAll().ok());
  auto live = agg.GlobalPointQuery(7, kWindow);
  ASSERT_TRUE(live.ok());
  EXPECT_NEAR(*live, 1'000.0, 100.0);
  for (Timestamp t = 2'000; t <= 2 * kWindow; t += 10) agg.Process(1, 8, t);
  ASSERT_EQ(agg.clock(), 2 * kWindow);
  auto expired = agg.GlobalPointQuery(7, kWindow);
  ASSERT_TRUE(expired.ok()) << expired.status();
  EXPECT_EQ(*expired, 0.0);
  // Site 1's unpushed arrivals are still missing until it pushes.
  auto stale = agg.GlobalPointQuery(8, kWindow);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(*stale, 0.0);
  ASSERT_TRUE(agg.SyncAll().ok());
  auto fresh = agg.GlobalPointQuery(8, kWindow);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NEAR(*fresh, static_cast<double>(kWindow / 10), kWindow / 100.0);
}

TEST(PeriodicAggregatorTest, BandwidthFreshnessTradeoff) {
  // Smaller drift budgets cost more pushes; both configurations answer
  // queries, the tighter one fresher.
  ZipfStream::Config zc;
  zc.domain = 200;
  zc.num_nodes = 2;
  zc.seed = 21;
  auto events = ZipfStream(zc).Take(20'000);

  auto run = [&](double drift) {
    PeriodicAggregator::Config cfg;
    cfg.drift_fraction = drift;
    PeriodicAggregator agg(2, SketchCfg(), cfg);
    for (const auto& e : events) agg.Process(e.node, e.key, e.ts);
    return agg.stats().network.bytes;
  };
  uint64_t tight = run(0.05);
  uint64_t loose = run(0.5);
  EXPECT_GT(tight, loose * 2);
}

TEST(PeriodicAggregatorTest, StatsConsistency) {
  PeriodicAggregator::Config cfg;
  cfg.period = 500;
  PeriodicAggregator agg(2, SketchCfg(), cfg);
  for (Timestamp t = 1; t <= 3'000; ++t) agg.Process(t % 2, 5, t);
  const auto& s = agg.stats();
  EXPECT_EQ(s.updates, 3'000u);
  EXPECT_EQ(s.network.messages, s.pushes);
  EXPECT_GT(s.network.bytes, 0u);
  EXPECT_LE(s.periodic_pushes + s.drift_pushes + 2 /*initial*/, s.pushes + 2);
}

}  // namespace
}  // namespace ecm
