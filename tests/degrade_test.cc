// Tests for graceful degradation (dist/degrade.h):
//  * policy dispatch — kFailClosed refuses on any missing/stale site,
//    kExcludeSite serves from fresh sites only, kServeStaleWithBound
//    serves everything retained; all three agree on the clean path,
//    where the answer is the per-site cell sum under Theorem 1's bound;
//  * honest bounds — on a hand-built deterministic outage and on a
//    four-site Zipf stream with one stale site the reported error_bound
//    covers |estimate - exact truth| under the declared per-site rate
//    ceiling, and inflates with staleness/exclusion;
//  * a pinned query clock — a snapshot ahead of the caller's clock moves
//    the answer's clock forward instead of being read behind it;
//  * snapshot retention — the max-event-clock guard never lets a
//    delayed older image overwrite a newer one; SetHealth flips
//    freshness; UpdateSerialized decodes wire images and rejects
//    corrupt ones.

#include "src/dist/degrade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/aggregation_tree.h"
#include "src/dist/serialize.h"
#include "src/stream/generators.h"
#include "src/util/status.h"
#include "src/window/exponential_histogram.h"
#include "src/window/randomized_wave.h"

namespace ecm {
namespace {

template <typename Counter>
EcmSketch<Counter> MakeSketch(uint64_t seed = 7) {
  auto sketch = EcmSketch<Counter>::Create(0.1, 0.1, WindowMode::kTimeBased,
                                           200, seed);
  EXPECT_TRUE(sketch.ok()) << sketch.status();
  return std::move(*sketch);
}

/// One arrival of `key` per tick over [1, last_ts] — rate exactly 1.
template <typename Counter>
void FeedOnePerTick(EcmSketch<Counter>* sketch, uint64_t key,
                    Timestamp last_ts) {
  for (Timestamp ts = 1; ts <= last_ts; ++ts) sketch->Add(key, ts);
}

constexpr uint64_t kKey = 42;

TEST(DegradeTest, NoSitesRegisteredIsUnavailable) {
  DegradingMergeView<ExponentialHistogram> view;
  auto r = view.PointQuery(kKey, 100, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(r.status()));
}

TEST(DegradeTest, HealthKnownButNoSnapshotYet) {
  // A site the server knows about (health report arrived) but whose
  // first snapshot has not: kFailClosed refuses; the serving policies
  // have nothing to merge, which is also a refusal.
  DegradationOptions opts;
  opts.policy = DegradationPolicy::kFailClosed;
  DegradingMergeView<ExponentialHistogram> closed(opts);
  closed.SetHealth(0, true);
  EXPECT_EQ(closed.PointQuery(kKey, 100, 10).status().code(),
            StatusCode::kUnavailable);

  DegradingMergeView<ExponentialHistogram> open;  // serve-stale default
  open.SetHealth(0, true);
  EXPECT_EQ(open.PointQuery(kKey, 100, 10).status().code(),
            StatusCode::kUnavailable);
}

/// Theorem 1's single-sketch budget, the sketch term's relative error.
double Theorem1Epsilon(const EcmConfig& cfg) {
  return cfg.epsilon_cm + cfg.epsilon_sw + cfg.epsilon_cm * cfg.epsilon_sw;
}

TEST(DegradeTest, CleanPathMatchesSiteSumForAllPolicies) {
  auto s0 = MakeSketch<ExponentialHistogram>();
  auto s1 = MakeSketch<ExponentialHistogram>();
  FeedOnePerTick(&s0, kKey, 100);
  FeedOnePerTick(&s1, kKey, 100);
  const std::vector<const EcmSketch<ExponentialHistogram>*> ptrs{&s0, &s1};
  auto direct =
      EcmSketch<ExponentialHistogram>::SumPointQueryAt(ptrs, kKey, 200, 100);
  ASSERT_TRUE(direct.ok()) << direct.status();
  auto l1 = EcmSketch<ExponentialHistogram>::SumL1At(ptrs, 200, 100);
  ASSERT_TRUE(l1.ok()) << l1.status();
  const double eps_q = Theorem1Epsilon(s0.config());

  for (DegradationPolicy policy :
       {DegradationPolicy::kFailClosed, DegradationPolicy::kServeStaleWithBound,
        DegradationPolicy::kExcludeSite}) {
    DegradationOptions opts;
    opts.policy = policy;
    opts.max_rate_per_site = 1.0;
    DegradingMergeView<ExponentialHistogram> view(opts);
    view.Update(0, s0);
    view.Update(1, s1);
    auto r = view.PointQuery(kKey, 200, 100);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_DOUBLE_EQ(r->estimate, *direct);
    EXPECT_FALSE(r->degraded);
    EXPECT_EQ(r->sites_included, 2);
    EXPECT_EQ(r->sites_stale, 0);
    EXPECT_EQ(r->sites_excluded, 0);
    EXPECT_EQ(r->now, 100u);
    // Every retained snapshot is at the query clock: zero slack, the
    // bound is pure sketch error — Theorem 1's budget times the summed
    // L1 estimate's upper bound — and it is strictly positive.
    EXPECT_DOUBLE_EQ(r->staleness_slack, 0.0);
    EXPECT_DOUBLE_EQ(r->sketch_error, eps_q * *l1 / (1.0 - eps_q));
    EXPECT_GT(r->sketch_error, 0.0);
    EXPECT_DOUBLE_EQ(r->error_bound, r->sketch_error);
  }
}

TEST(DegradeTest, QueryClockPinnedToNewestSnapshot) {
  // A snapshot that landed after the caller read its clock: asked at
  // 100, the view answers at the snapshot's 120 and says so, instead of
  // reading a sketch behind its own clock.
  auto s0 = MakeSketch<ExponentialHistogram>();
  FeedOnePerTick(&s0, kKey, 120);
  DegradingMergeView<ExponentialHistogram> view;
  view.Update(0, s0);
  auto r = view.PointQuery(kKey, 200, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->now, 120u);
  EXPECT_FALSE(r->degraded);
  const double truth = 120;  // one arrival per tick over (0, 120]
  EXPECT_LE(std::abs(r->estimate - truth), r->error_bound);
  EXPECT_DOUBLE_EQ(r->estimate, s0.PointQueryAt(kKey, 200, 120));
}

TEST(DegradeTest, ZipfSitesWithOneStaleSiteStayInsideTheBound) {
  // Four sites split one Zipf stream; site 3's last snapshot is 150
  // ticks old. Every key's answer must sit inside the reported bound,
  // and the sketch term must undercut the one-level merge calibration
  // (eps_cm + MultiLevelErrorBound(eps_sw, 1)) the view used to report.
  constexpr int kSites = 4;
  constexpr uint64_t kRange = 2'000;
  constexpr uint64_t kDomain = 400;
  ZipfStream::Config zc;
  zc.domain = kDomain;
  zc.skew = 1.1;
  zc.num_nodes = kSites;
  zc.events_per_tick = 2.0;
  zc.seed = 23;
  const std::vector<StreamEvent> events = ZipfStream(zc).Take(12'000);
  const Timestamp now = events.back().ts;
  const Timestamp stale_clock = now - 150;

  auto cfg = EcmConfig::Create(0.1, 0.05, WindowMode::kTimeBased, 4'000, 5);
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  std::vector<EcmSketch<ExponentialHistogram>> sites(
      kSites, EcmSketch<ExponentialHistogram>(*cfg));
  std::map<std::pair<uint32_t, Timestamp>, double> per_tick;
  for (const StreamEvent& e : events) {
    per_tick[{e.node, e.ts}] += 1.0;
    if (e.node == kSites - 1 && e.ts > stale_clock) continue;
    sites[e.node].Add(e.key, e.ts);
  }
  double max_rate = 0.0;
  for (const auto& [site_tick, n] : per_tick) max_rate = std::max(max_rate, n);

  DegradationOptions opts;
  opts.policy = DegradationPolicy::kServeStaleWithBound;
  opts.stale_after = 50;
  opts.max_rate_per_site = max_rate;
  DegradingMergeView<ExponentialHistogram> view(opts);
  std::vector<const EcmSketch<ExponentialHistogram>*> ptrs;
  for (int i = 0; i < kSites; ++i) {
    view.Update(static_cast<NodeId>(i), sites[i]);
    ptrs.push_back(&sites[i]);
  }

  // The old sketch term: one merge level, its L1 read off the merge.
  auto merged = EcmSketch<ExponentialHistogram>::Merge(ptrs, cfg->epsilon_sw,
                                                       cfg->seed);
  ASSERT_TRUE(merged.ok()) << merged.status();
  const double eps_old =
      cfg->epsilon_cm + MultiLevelErrorBound(cfg->epsilon_sw, 1);
  const double old_term =
      eps_old * merged->EstimateL1At(kRange, now) / (1.0 - eps_old);

  const ExactRangeStats exact = ComputeExactRangeStats(events, now, kRange);
  std::map<uint64_t, double> truth;
  for (const auto& [key, count] : exact.freqs) {
    truth[key] = static_cast<double>(count);
  }
  for (uint64_t key = 1; key <= kDomain; ++key) {  // Zipf keys are 1..n
    auto r = view.PointQuery(key, kRange, now);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->sites_stale, 1);
    ASSERT_GT(r->staleness_slack, 0.0);
    EXPECT_LE(std::abs(r->estimate - truth[key]), r->error_bound)
        << "key " << key;
    EXPECT_DOUBLE_EQ(r->sketch_error,
                     r->error_bound - r->staleness_slack);
    EXPECT_LT(r->sketch_error, old_term);
  }
}

TEST(DegradeTest, StaleSitePolicyDispatch) {
  // Site 0 is current (clock 100); site 1's last snapshot is from clock
  // 60 — an outage 40 ticks long against stale_after = 10.
  auto s0 = MakeSketch<ExponentialHistogram>();
  auto s1 = MakeSketch<ExponentialHistogram>();
  FeedOnePerTick(&s0, kKey, 100);
  FeedOnePerTick(&s1, kKey, 60);
  const double truth = 100 + 60;  // one arrival per tick per site

  DegradationOptions opts;
  opts.stale_after = 10;
  opts.max_rate_per_site = 1.0;

  {
    opts.policy = DegradationPolicy::kFailClosed;
    DegradingMergeView<ExponentialHistogram> view(opts);
    view.Update(0, s0);
    view.Update(1, s1);
    auto r = view.PointQuery(kKey, 200, 100);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  {
    opts.policy = DegradationPolicy::kServeStaleWithBound;
    DegradingMergeView<ExponentialHistogram> view(opts);
    view.Update(0, s0);
    view.Update(1, s1);
    auto r = view.PointQuery(kKey, 200, 100);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r->degraded);
    EXPECT_EQ(r->sites_included, 2);
    EXPECT_EQ(r->sites_stale, 1);
    EXPECT_EQ(r->sites_excluded, 0);
    // Slack: site 0 is at the clock (0), site 1 may have absorbed
    // rate * min(100 - 60, 200) = 40 unseen arrivals.
    EXPECT_DOUBLE_EQ(r->staleness_slack, 40.0);
    EXPECT_LE(std::abs(r->estimate - truth), r->error_bound);
  }
  {
    opts.policy = DegradationPolicy::kExcludeSite;
    DegradingMergeView<ExponentialHistogram> view(opts);
    view.Update(0, s0);
    view.Update(1, s1);
    auto r = view.PointQuery(kKey, 200, 100);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r->degraded);
    EXPECT_EQ(r->sites_included, 1);
    EXPECT_EQ(r->sites_stale, 0);
    EXPECT_EQ(r->sites_excluded, 1);
    // The excluded site may hold up to rate * range window mass.
    EXPECT_DOUBLE_EQ(r->staleness_slack, 200.0);
    EXPECT_LE(std::abs(r->estimate - truth), r->error_bound);
  }
}

TEST(DegradeTest, ExcludingEverySiteIsUnavailable) {
  auto s0 = MakeSketch<ExponentialHistogram>();
  FeedOnePerTick(&s0, kKey, 10);
  DegradationOptions opts;
  opts.policy = DegradationPolicy::kExcludeSite;
  opts.stale_after = 5;
  DegradingMergeView<ExponentialHistogram> view(opts);
  view.Update(0, s0);
  auto r = view.PointQuery(kKey, 200, 100);  // 90 ticks behind
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(DegradeTest, UnhealthySiteIsNeverFresh) {
  auto s0 = MakeSketch<ExponentialHistogram>();
  auto s1 = MakeSketch<ExponentialHistogram>();
  FeedOnePerTick(&s0, kKey, 100);
  FeedOnePerTick(&s1, kKey, 100);
  DegradationOptions opts;
  opts.policy = DegradationPolicy::kExcludeSite;
  opts.max_rate_per_site = 1.0;
  DegradingMergeView<ExponentialHistogram> view(opts);
  view.Update(0, s0);
  view.Update(1, s1);
  // Liveness tracking declares site 1 down: its snapshot is at the
  // query clock yet it must not count as fresh.
  view.SetHealth(1, false);
  auto r = view.PointQuery(kKey, 200, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->sites_included, 1);
  EXPECT_EQ(r->sites_excluded, 1);
  EXPECT_TRUE(r->degraded);
  // Recovery restores the clean answer.
  view.SetHealth(1, true);
  auto healed = view.PointQuery(kKey, 200, 100);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->sites_included, 2);
  EXPECT_FALSE(healed->degraded);
}

TEST(DegradeTest, OlderSnapshotNeverOverwritesNewer) {
  auto current = MakeSketch<ExponentialHistogram>();
  auto older = MakeSketch<ExponentialHistogram>();
  FeedOnePerTick(&current, kKey, 80);
  FeedOnePerTick(&older, kKey, 30);
  DegradingMergeView<ExponentialHistogram> view;
  view.Update(0, current);
  // A delayed, reordered frame delivers the older image late.
  view.Update(0, older);
  const auto meta = view.site_meta(80);
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(meta[0].snapshot_clock, 80u);
  EXPECT_EQ(view.LatestClock(), 80u);
  // An equal-clock image (idempotent redelivery) is accepted.
  view.Update(0, current);
  EXPECT_EQ(view.site_meta(80)[0].snapshot_clock, 80u);
}

TEST(DegradeTest, LatestClockTracksMostAdvancedSite) {
  auto s0 = MakeSketch<ExponentialHistogram>();
  auto s1 = MakeSketch<ExponentialHistogram>();
  FeedOnePerTick(&s0, kKey, 33);
  FeedOnePerTick(&s1, kKey, 77);
  DegradingMergeView<ExponentialHistogram> view;
  EXPECT_EQ(view.LatestClock(), 0u);
  view.Update(0, s0);
  EXPECT_EQ(view.LatestClock(), 33u);
  view.Update(1, s1);
  EXPECT_EQ(view.LatestClock(), 77u);
}

TEST(DegradeTest, UpdateSerializedDecodesWireImages) {
  auto s0 = MakeSketch<RandomizedWave>();
  FeedOnePerTick(&s0, kKey, 50);
  const std::vector<uint8_t> image = SerializeSketch(s0);

  DegradingMergeView<RandomizedWave> view;
  ASSERT_TRUE(view.UpdateSerialized(0, image.data(), image.size()).ok());
  EXPECT_EQ(view.LatestClock(), 50u);
  auto r = view.PointQuery(kKey, 200, 50);
  ASSERT_TRUE(r.ok()) << r.status();

  // Equivalent to the in-memory Update path.
  DegradingMergeView<RandomizedWave> direct;
  direct.Update(0, s0);
  auto d = direct.PointQuery(kKey, 200, 50);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_DOUBLE_EQ(r->estimate, d->estimate);
  EXPECT_DOUBLE_EQ(r->error_bound, d->error_bound);

  // Corrupt images reject without disturbing retained state.
  std::vector<uint8_t> bad = image;
  bad[bad.size() / 2] ^= 0x40;
  EXPECT_FALSE(view.UpdateSerialized(0, bad.data(), bad.size()).ok());
  EXPECT_EQ(view.LatestClock(), 50u);
}

TEST(DegradeTest, RateCeilingZeroMeansSketchErrorOnly) {
  // With no declared ingest rate the slack term honestly collapses to
  // zero — the bound covers sketch error only (idle-stream assumption).
  auto s0 = MakeSketch<ExponentialHistogram>();
  FeedOnePerTick(&s0, kKey, 20);
  DegradationOptions opts;
  opts.stale_after = 5;
  DegradingMergeView<ExponentialHistogram> view(opts);
  view.Update(0, s0);
  auto r = view.PointQuery(kKey, 200, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->degraded);
  EXPECT_EQ(r->sites_stale, 1);
  EXPECT_DOUBLE_EQ(r->staleness_slack, 0.0);
  EXPECT_DOUBLE_EQ(r->error_bound, r->sketch_error);
}

}  // namespace
}  // namespace ecm
