// Tests for the continuous-query engine: threshold edge-triggering in
// both directions, window-slide de-assertion, heavy-hitter periodic
// reports, query lifecycle, evaluation-cadence accounting, the one-sketch
// identity (the dyadic stack's level 0 is the engine's sketch) and a
// keyed store that outlives a move of its engine.

#include "src/engine/continuous.h"

#include <gtest/gtest.h>

#include <utility>

#include "src/dist/serialize.h"
#include "src/stream/generators.h"

namespace ecm {
namespace {

StreamEngine::Options MakeOptions(uint64_t window = 10'000,
                                  int domain_bits = 0,
                                  uint64_t evaluate_every = 16) {
  auto cfg =
      EcmConfig::Create(0.05, 0.05, WindowMode::kTimeBased, window, 71);
  EXPECT_TRUE(cfg.ok());
  StreamEngine::Options opts;
  opts.sketch = *cfg;
  opts.domain_bits = domain_bits;
  opts.evaluate_every = evaluate_every;
  return opts;
}

TEST(StreamEngineTest, PointThresholdFiresOnce) {
  StreamEngine engine(MakeOptions());
  std::vector<ThresholdAlert> alerts;
  engine.WatchPoint(5, 10'000, 100.0,
                    [&](const ThresholdAlert& a) { alerts.push_back(a); });
  for (Timestamp t = 1; t <= 300; ++t) engine.Ingest(5, t);
  ASSERT_EQ(alerts.size(), 1u);  // edge-triggered, not per-arrival
  EXPECT_TRUE(alerts[0].above);
  EXPECT_GE(alerts[0].estimate, 100.0);
}

TEST(StreamEngineTest, PointThresholdDeassertsWhenWindowSlides) {
  StreamEngine engine(MakeOptions(/*window=*/1'000, 0, /*evaluate_every=*/8));
  std::vector<ThresholdAlert> alerts;
  engine.WatchPoint(5, 1'000, 100.0,
                    [&](const ThresholdAlert& a) { alerts.push_back(a); });
  // Burst of key 5, then unrelated traffic pushes the window past it.
  for (Timestamp t = 1; t <= 200; ++t) engine.Ingest(5, t);
  for (Timestamp t = 201; t <= 3'000; ++t) engine.Ingest(77, t);
  ASSERT_GE(alerts.size(), 2u);
  EXPECT_TRUE(alerts.front().above);
  EXPECT_FALSE(alerts.back().above);
}

TEST(StreamEngineTest, SelfJoinThresholdDetectsConcentration) {
  StreamEngine engine(MakeOptions(/*window=*/5'000, 0, /*evaluate_every=*/8));
  std::vector<ThresholdAlert> alerts;
  engine.WatchSelfJoin(5'000, 1e5,
                       [&](const ThresholdAlert& a) { alerts.push_back(a); });
  Rng rng(4);
  Timestamp t = 1;
  // Dispersed phase: F2 stays low.
  for (int i = 0; i < 2'000; ++i) engine.Ingest(rng.Uniform(5'000), ++t);
  EXPECT_TRUE(alerts.empty());
  // Concentrated phase: one key dominates -> F2 ~ n^2 explodes.
  for (int i = 0; i < 1'000; ++i) engine.Ingest(9, ++t);
  ASSERT_FALSE(alerts.empty());
  EXPECT_TRUE(alerts.back().above);
}

TEST(StreamEngineTest, HeavyHitterReportsArePeriodic) {
  StreamEngine engine(MakeOptions(10'000, /*domain_bits=*/12, 16));
  std::vector<HeavyHitterReport> reports;
  auto id = engine.WatchHeavyHitters(
      0.2, 10'000, /*period=*/1'000,
      [&](const HeavyHitterReport& r) { reports.push_back(r); });
  ASSERT_TRUE(id.ok());
  Rng rng(5);
  Timestamp t = 1;
  for (int i = 0; i < 5'000; ++i) {
    // Key 3 takes ~half the stream.
    engine.Ingest(rng.Bernoulli(0.5) ? 3 : rng.Uniform(4'096), ++t);
  }
  ASSERT_GE(reports.size(), 4u);
  for (const auto& r : reports) {
    bool found_3 = false;
    for (const auto& h : r.hitters) {
      if (h.key == 3) found_3 = true;
    }
    EXPECT_TRUE(found_3) << "report at ts " << r.ts;
    EXPECT_GT(r.window_l1, 0.0);
  }
}

TEST(StreamEngineTest, HeavyHitterWatchNeedsDomainBits) {
  StreamEngine engine(MakeOptions(10'000, /*domain_bits=*/0));
  auto id = engine.WatchHeavyHitters(0.1, 10'000, 100, nullptr);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamEngineTest, WatchValidation) {
  StreamEngine engine(MakeOptions(10'000, 8));
  EXPECT_FALSE(engine.WatchHeavyHitters(0.0, 100, 10, nullptr).ok());
  EXPECT_FALSE(engine.WatchHeavyHitters(1.5, 100, 10, nullptr).ok());
  EXPECT_FALSE(engine.WatchHeavyHitters(0.1, 100, 0, nullptr).ok());
}

TEST(StreamEngineTest, UnwatchStopsCallbacks) {
  StreamEngine engine(MakeOptions());
  int fired = 0;
  QueryId id = engine.WatchPoint(5, 10'000, 10.0,
                                 [&](const ThresholdAlert&) { ++fired; });
  for (Timestamp t = 1; t <= 20; ++t) engine.Ingest(5, t);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.Unwatch(id));
  EXPECT_FALSE(engine.Unwatch(id));  // already gone
  for (Timestamp t = 21; t <= 4000; ++t) engine.Ingest(6, t);
  EXPECT_EQ(fired, 1);  // no de-assertion callback after Unwatch
}

TEST(StreamEngineTest, StatsAccounting) {
  StreamEngine engine(MakeOptions(10'000, 0, /*evaluate_every=*/10));
  engine.WatchSelfJoin(10'000, 1e18, nullptr);
  for (Timestamp t = 1; t <= 100; ++t) engine.Ingest(1, t);
  const auto& s = engine.stats();
  EXPECT_EQ(s.arrivals, 100u);
  EXPECT_EQ(s.selfjoin_evaluations, 10u);  // every 10th arrival
}

TEST(StreamEngineTest, AdHocQueriesPassThrough) {
  StreamEngine engine(MakeOptions());
  for (Timestamp t = 1; t <= 500; ++t) engine.Ingest(8, t);
  EXPECT_NEAR(engine.PointQuery(8, 10'000), 500.0, 30.0);
  EXPECT_GT(engine.SelfJoin(10'000), 0.0);
  EXPECT_GT(engine.MemoryBytes(), 0u);
}

TEST(StreamEngineTest, MultipleWatchesIndependent) {
  StreamEngine engine(MakeOptions(10'000, 0, 8));
  int a_fired = 0, b_fired = 0;
  engine.WatchPoint(1, 10'000, 50.0,
                    [&](const ThresholdAlert&) { ++a_fired; });
  engine.WatchPoint(2, 10'000, 50.0,
                    [&](const ThresholdAlert&) { ++b_fired; });
  for (Timestamp t = 1; t <= 100; ++t) engine.Ingest(1, t);
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(b_fired, 0);  // key 2 never arrived
}

TEST(StreamEngineTest, IngestFeedsDyadicStack) {
  StreamEngine engine(MakeOptions(10'000, /*domain_bits=*/8));
  ASSERT_NE(engine.dyadic(), nullptr);
  for (Timestamp t = 1; t <= 500; ++t) engine.Ingest(t % 11, t);
  EXPECT_EQ(engine.stats().arrivals, 500u);
  EXPECT_EQ(engine.sketch().Now(), 500u);
  EXPECT_NEAR(engine.PointQuery(4, 10'000), 500.0 / 11, 30.0);
  EXPECT_NEAR(engine.dyadic()->RangeQuery(0, 10, 10'000), 500.0, 100.0);
}

// One sketch per stream: with or without a dyadic stack, the engine's
// sketch is exactly the EcmSketch(config) a standalone user builds from
// the same arrivals, byte for byte on the wire; with a stack it is the
// stack's level 0 itself.
TEST(StreamEngineTest, SketchIsTheStandaloneSketch) {
  for (int domain_bits : {0, 12}) {
    const StreamEngine::Options opts = MakeOptions(10'000, domain_bits);
    StreamEngine engine(opts);
    EcmSketch<ExponentialHistogram> standalone(opts.sketch);
    Rng rng(8);
    for (Timestamp t = 1; t <= 5'000; ++t) {
      const uint64_t key = rng.Uniform(4'096);
      const uint64_t count = 1 + rng.Uniform(3);
      engine.Ingest(key, t, count);
      standalone.Add(key, t, count);
    }
    EXPECT_EQ(SerializeSketch(engine.sketch()), SerializeSketch(standalone))
        << "domain_bits=" << domain_bits;
    if (domain_bits > 0) {
      ASSERT_NE(engine.dyadic(), nullptr);
      EXPECT_EQ(&engine.sketch(), &engine.dyadic()->level(0));
    } else {
      EXPECT_EQ(engine.dyadic(), nullptr);
    }
  }
}

// The keyed store borrows the engine's sketch for admission. After the
// engine moves (engines live in vectors), the store must read the sketch
// the moved-to engine owns, not the moved-from one.
TEST(StreamEngineTest, KeyedStoreSurvivesEngineMove) {
  for (int domain_bits : {0, 12}) {
    StreamEngine a(MakeOptions(10'000, domain_bits));
    KeyedStoreConfig kc;
    kc.window_len = 10'000;
    kc.admit_threshold = 5;
    a.EnableKeyedStore(kc);
    StreamEngine b = std::move(a);
    for (Timestamp t = 1; t <= 50; ++t) b.Ingest(7, t);
    ASSERT_NE(b.keyed_store(), nullptr);
    EXPECT_EQ(b.keyed_store()->stats().admissions, 1u)
        << "domain_bits=" << domain_bits;
    bool exact = false;
    const double est = b.PointQueryExact(7, 10'000, &exact);
    EXPECT_TRUE(exact);
    // Admitted at the arrival that lifted the sketch estimate to 5.
    EXPECT_NEAR(est, 46.0, 1.0);
  }
}

}  // namespace
}  // namespace ecm
