// Full-pipeline integration: jittery distributed feeds -> per-site
// reorder buffers -> per-site engines -> scheduled propagation to a
// coordinator -> global queries. Exercises every subsystem added on top
// of the paper's core in one realistic deployment shape.

#include <gtest/gtest.h>

#include "src/dist/periodic.h"
#include "src/engine/continuous.h"
#include "src/stream/wc98_like.h"
#include "tests/reorder.h"

namespace ecm {
namespace {

TEST(PipelineTest, JitteryFeedsThroughEnginesAndCoordinator) {
  constexpr uint64_t kWindow = 50'000;
  constexpr int kSites = 4;
  auto cfg = EcmConfig::Create(0.05, 0.05, WindowMode::kTimeBased, kWindow,
                               2025);
  ASSERT_TRUE(cfg.ok());

  // Workload: wc98-like, sharded over 4 sites, shuffled by network jitter.
  Wc98Config wc;
  wc.num_events = 60'000;
  wc.num_servers = kSites;
  auto ordered = GenerateWc98Like(wc);
  auto jittered = ShuffleWithBoundedDelay(ordered, /*max_shift=*/300, 5);

  // Per-site: reorder buffer -> engine (local alerting) and mirror feed
  // into the propagation coordinator.
  PeriodicAggregator::Config pcfg;
  pcfg.period = 5'000;
  PeriodicAggregator coordinator(kSites, *cfg, pcfg);

  StreamEngine::Options opts;
  opts.sketch = *cfg;
  std::vector<StreamEngine> engines;
  engines.reserve(kSites);
  for (int i = 0; i < kSites; ++i) engines.emplace_back(opts);
  std::vector<int> local_alerts(kSites, 0);
  for (int i = 0; i < kSites; ++i) {
    engines[i].WatchPoint(
        /*key=*/1, kWindow, /*threshold=*/200.0,
        [&local_alerts, i](const ThresholdAlert&) { ++local_alerts[i]; });
  }

  std::vector<std::unique_ptr<ReorderBuffer>> buffers;
  for (int i = 0; i < kSites; ++i) {
    buffers.push_back(std::make_unique<ReorderBuffer>(
        ReorderBuffer::Config{300, ReorderBuffer::LatePolicy::kClampForward},
        [&, i](const StreamEvent& e) {
          engines[i].Ingest(e.key, e.ts);
          coordinator.Process(i, e.key, e.ts);
        }));
  }
  for (const auto& e : jittered) buffers[e.node]->Push(e);
  for (auto& b : buffers) b->Flush();

  // Every event made it through, in order, to both consumers.
  uint64_t engine_total = 0;
  for (const auto& eng : engines) engine_total += eng.stats().arrivals;
  EXPECT_EQ(engine_total, ordered.size());
  EXPECT_EQ(coordinator.stats().updates, ordered.size());
  for (const auto& b : buffers) EXPECT_EQ(b->dropped_events(), 0u);

  // Coordinator's merged view vs exact ground truth on the hot keys.
  ASSERT_TRUE(coordinator.SyncAll().ok());
  Timestamp now = coordinator.clock();
  auto exact = ComputeExactRangeStats(ordered, now, kWindow);
  int checked = 0;
  for (const auto& [key, count] : exact.freqs) {
    if (count < exact.l1 / 100) continue;
    auto est = coordinator.GlobalPointQuery(key, kWindow);
    ASSERT_TRUE(est.ok());
    EXPECT_NEAR(*est, static_cast<double>(count), 0.2 * exact.l1 + 3.0)
        << "key " << key;
    ++checked;
  }
  EXPECT_GT(checked, 2);

  // Propagation stayed cheap: far fewer pushes than updates.
  EXPECT_LT(coordinator.stats().pushes, ordered.size() / 100);
}

TEST(PipelineTest, LocalAndGlobalViewsAgreeOnHotKey) {
  constexpr uint64_t kWindow = 20'000;
  auto cfg = EcmConfig::Create(0.05, 0.05, WindowMode::kTimeBased, kWindow,
                               77);
  ASSERT_TRUE(cfg.ok());
  PeriodicAggregator coordinator(2, *cfg, {});
  // All traffic for key 9 goes to site 0; site 1 sees other keys.
  Timestamp t = 1;
  for (int i = 0; i < 3'000; ++i) {
    coordinator.Process(0, 9, t);
    coordinator.Process(1, 1000 + (i % 50), t);
    ++t;
  }
  ASSERT_TRUE(coordinator.SyncAll().ok());
  auto global = coordinator.GlobalPointQuery(9, kWindow);
  ASSERT_TRUE(global.ok());
  double local = coordinator.site_sketch(0).PointQuery(9, kWindow);
  // The global estimate must match the only contributing site.
  EXPECT_NEAR(*global, local, local * 0.15 + 3.0);
}

}  // namespace
}  // namespace ecm
