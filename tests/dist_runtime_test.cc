// Tests for the shared distributed runtime (dist/runtime.h + transport.h):
//
//  * Transport byte-accounting equals the legacy per-substrate
//    NetworkStats on identical scripts (aggregation tree, scheduled
//    propagation, geometric monitoring all charge one currency);
//  * incremental drift tracking fires syncs on exactly the same arrivals
//    as the full-rebuild reference (oracle::RebuildGeometricMonitor)
//    across randomized multi-site streams;
//  * counter-generic monitor instantiations (EH + RW) behave;
//  * ParallelIngest: sharded multi-threaded ingest matches sequential
//    semantics where they must agree, and the sync barrier drains the
//    coordinator exactly once per round.

#include "src/dist/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/dist/geometric.h"
#include "src/dist/periodic.h"
#include "src/dist/serialize.h"
#include "src/stream/generators.h"
#include "tests/test_oracles.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 50'000;

EcmConfig SketchCfg(uint64_t seed = 19,
                    OptimizeFor opt = OptimizeFor::kSelfJoinQueries) {
  auto cfg =
      EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, kWindow, seed, opt);
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

std::vector<StreamEvent> ZipfEvents(size_t n, uint32_t sites, uint64_t seed,
                                    double skew = 1.0, uint64_t domain = 500) {
  ZipfStream::Config zc;
  zc.domain = domain;
  zc.skew = skew;
  zc.num_nodes = sites;
  zc.seed = seed;
  return ZipfStream(zc).Take(n);
}

// --- Transport ------------------------------------------------------------

TEST(LoopbackTransportTest, CountsMessagesAndBytes) {
  LoopbackTransport t;
  const std::vector<uint8_t> payload(100, 0x5A);
  t.Send(0, kCoordinatorNode, payload.data(), 100);
  t.Send(1, kCoordinatorNode, payload.data(), 28);
  t.Send(kCoordinatorNode, 1, payload.data(), 0);
  NetworkStats s = t.stats();
  EXPECT_EQ(s.messages, 3u);
  EXPECT_EQ(s.bytes, 128u);
}

TEST(LoopbackTransportTest, ConcurrentSendsAllLand) {
  LoopbackTransport t;
  constexpr int kThreads = 8;
  constexpr int kSends = 2'000;
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&t, w] {
      const uint8_t payload[3] = {1, 2, 3};
      for (int i = 0; i < kSends; ++i) {
        t.Send(w, kCoordinatorNode, payload, sizeof(payload));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(t.stats().messages, uint64_t{kThreads} * kSends);
  EXPECT_EQ(t.stats().bytes, uint64_t{kThreads} * kSends * 3);
}

// --- Site / Coordinator ----------------------------------------------------

TEST(SiteTest, IngestRoutesToSketch) {
  EcmConfig cfg = SketchCfg(3, OptimizeFor::kPointQueries);
  Site<ExponentialHistogram> site(0, cfg);
  for (Timestamp t = 1; t <= 500; ++t) site.Ingest(t % 11, t);
  EXPECT_EQ(site.updates(), 500u);
  EXPECT_EQ(site.sketch().Now(), 500u);
  EXPECT_NEAR(site.sketch().PointQuery(4, kWindow), 500.0 / 11, 30.0);
}

TEST(SiteTest, IngestBatchMatchesPerArrival) {
  EcmConfig cfg = SketchCfg(5, OptimizeFor::kPointQueries);
  auto events = ZipfEvents(4'000, 1, 17);
  Site<ExponentialHistogram> a(0, cfg), b(0, cfg);
  for (const auto& e : events) a.Ingest(e.key, e.ts);
  b.IngestBatch(events.data(), events.size());
  Timestamp now = events.back().ts;
  for (uint64_t key : {1ull, 7ull, 42ull, 300ull}) {
    EXPECT_EQ(a.sketch().PointQueryAt(key, kWindow, now),
              b.sketch().PointQueryAt(key, kWindow, now));
  }
}

TEST(CoordinatorTest, CollectAndMergeChargesExactWireBytes) {
  EcmConfig cfg = SketchCfg(7, OptimizeFor::kPointQueries);
  LoopbackTransport transport;
  Coordinator<ExponentialHistogram> coord(3, cfg, &transport);
  auto events = ZipfEvents(9'000, 3, 23);
  for (const auto& e : events) {
    coord.site(static_cast<int>(e.node)).Ingest(e.key, e.ts);
  }
  uint64_t expected_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    expected_bytes += SerializeSketch(coord.site(i).sketch()).size();
  }
  auto merged = coord.CollectAndMerge();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(transport.stats().messages, 3u);
  EXPECT_EQ(transport.stats().bytes, expected_bytes);

  // The merged view answers like a directly merged sketch.
  std::vector<const EcmSketch<ExponentialHistogram>*> ptrs;
  for (int i = 0; i < 3; ++i) ptrs.push_back(&coord.site(i).sketch());
  auto direct = EcmSketch<ExponentialHistogram>::Merge(ptrs, cfg.epsilon_sw);
  ASSERT_TRUE(direct.ok());
  Timestamp now = events.back().ts;
  for (uint64_t key : {1ull, 9ull, 77ull}) {
    EXPECT_EQ(merged->PointQueryAt(key, kWindow, now),
              direct->PointQueryAt(key, kWindow, now));
  }
}

TEST(CoordinatorTest, CompressedCollectMatchesUncompressedBitForBit) {
  EcmConfig cfg = SketchCfg(7, OptimizeFor::kPointQueries);
  LoopbackTransport t_plain, t_comp;
  Coordinator<ExponentialHistogram> plain(3, cfg, &t_plain);
  CompressionOptions copts;
  copts.mode = CompressionMode::kAuto;
  Coordinator<ExponentialHistogram> comp(3, cfg, &t_comp, copts);

  // Several collect rounds: after the first, the channels ship delta/RLZ
  // images, and the merged views must stay identical to the
  // uncompressed coordinator's on the same arrivals.
  auto events = ZipfEvents(12'000, 3, 31);
  const size_t rounds = 6;
  const size_t per_round = events.size() / rounds;
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = r * per_round; i < (r + 1) * per_round; ++i) {
      const auto& e = events[i];
      plain.site(static_cast<int>(e.node)).Ingest(e.key, e.ts);
      comp.site(static_cast<int>(e.node)).Ingest(e.key, e.ts);
    }
    auto want = plain.CollectAndMerge();
    auto got = comp.CollectAndMerge();
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(SerializeSketch(*got), SerializeSketch(*want)) << "round " << r;
  }
  const CompressionStats cs = comp.compression_stats();
  EXPECT_EQ(cs.full_images + cs.rlz_images, rounds * 3);
  EXPECT_EQ(cs.delta_images, 0u);
  EXPECT_GT(cs.rlz_images, 0u);
  EXPECT_LT(cs.wire_bytes, cs.raw_bytes);
  // The transport was charged the compressed volume, not the raw one.
  EXPECT_EQ(t_comp.stats().bytes, cs.wire_bytes);
  EXPECT_LT(t_comp.stats().bytes, t_plain.stats().bytes);
}

TEST(CoordinatorTest, AggregateUpEqualsLegacyTreeAccounting) {
  EcmConfig cfg = SketchCfg(9, OptimizeFor::kPointQueries);
  LoopbackTransport transport;
  Coordinator<ExponentialHistogram> coord(8, cfg, &transport);
  auto events = ZipfEvents(16'000, 8, 29);
  std::vector<EcmSketch<ExponentialHistogram>> legacy_leaves(
      8, EcmSketch<ExponentialHistogram>(cfg));
  for (const auto& e : events) {
    coord.site(static_cast<int>(e.node)).Ingest(e.key, e.ts);
    legacy_leaves[e.node].Add(e.key, e.ts);
  }
  auto up = coord.AggregateUp();
  auto legacy = AggregateTree(legacy_leaves);
  ASSERT_TRUE(up.ok() && legacy.ok());
  // Identical script -> the transport charged exactly the legacy
  // NetworkStats (8-leaf full tree: 14 transfers), and the result mirror
  // agrees with it.
  EXPECT_EQ(legacy->network.messages, 14u);
  EXPECT_EQ(transport.stats().messages, legacy->network.messages);
  EXPECT_EQ(transport.stats().bytes, legacy->network.bytes);
  EXPECT_EQ(up->network.messages, legacy->network.messages);
  EXPECT_EQ(up->network.bytes, legacy->network.bytes);
  Timestamp now = events.back().ts;
  for (uint64_t key : {2ull, 13ull, 111ull}) {
    EXPECT_EQ(up->root.PointQueryAt(key, kWindow, now),
              legacy->root.PointQueryAt(key, kWindow, now));
  }
}

// --- Transport accounting == legacy NetworkStats on identical scripts ------

TEST(TransportAccountingTest, PeriodicPushesChargeExactSnapshotWire) {
  EcmConfig cfg = SketchCfg(41, OptimizeFor::kPointQueries);
  PeriodicAggregatorT<ExponentialHistogram>::Config pc;
  pc.period = 2'000;
  LoopbackTransport transport;
  PeriodicAggregatorT<ExponentialHistogram> agg(3, cfg, pc, &transport);
  // Legacy mirror: replay the same script and charge the legacy way —
  // one message per push at the pushing site's exact wire size.
  std::vector<EcmSketch<ExponentialHistogram>> mirror(
      3, EcmSketch<ExponentialHistogram>(cfg));
  NetworkStats legacy;
  for (const auto& e : ZipfEvents(20'000, 3, 31)) {
    mirror[e.node].Add(e.key, e.ts);
    if (agg.Process(static_cast<int>(e.node), e.key, e.ts)) {
      ++legacy.messages;
      legacy.bytes += SerializeSketch(mirror[e.node]).size();
    }
  }
  EXPECT_GT(legacy.messages, 10u);
  EXPECT_EQ(transport.stats().messages, legacy.messages);
  EXPECT_EQ(transport.stats().bytes, legacy.bytes);
  // The aggregator's own stats mirror is the same currency.
  EXPECT_EQ(agg.stats().network.messages, legacy.messages);
  EXPECT_EQ(agg.stats().network.bytes, legacy.bytes);
}

TEST(TransportAccountingTest, GeometricSyncsChargeVectorWire) {
  EcmConfig cfg = SketchCfg(43);
  GeometricSelfJoinMonitor::Config mc;
  mc.threshold = 1e9;
  mc.check_every = 4;
  LoopbackTransport transport;
  GeometricSelfJoinMonitor monitor(4, cfg, mc, &transport);
  for (const auto& e : ZipfEvents(12'000, 4, 37)) {
    monitor.Process(static_cast<int>(e.node), e.key, e.ts);
  }
  const MonitorStats s = monitor.stats();
  // Legacy formula: each sync ships n statistics vectors up and the
  // average back down, dim = w*d doubles each.
  const uint64_t dim = uint64_t{cfg.width} * static_cast<uint64_t>(cfg.depth);
  EXPECT_EQ(transport.stats().messages, s.syncs * 2 * 4);
  EXPECT_EQ(transport.stats().bytes, s.syncs * 2 * 4 * dim * sizeof(double));
  EXPECT_EQ(s.network.messages, transport.stats().messages);
  EXPECT_EQ(s.network.bytes, transport.stats().bytes);
}

TEST(TransportAccountingTest, SharedTransportSumsAllSubstrates) {
  // One run, one currency: a periodic aggregator and a point monitor
  // sharing a transport accumulate into a single NetworkStats.
  EcmConfig cfg = SketchCfg(47, OptimizeFor::kPointQueries);
  LoopbackTransport transport;
  PeriodicAggregatorT<ExponentialHistogram>::Config pc;
  pc.period = 4'000;
  PeriodicAggregatorT<ExponentialHistogram> agg(2, cfg, pc, &transport);
  GeometricPointMonitor::Config gc;
  gc.key = 7;
  gc.threshold = 1e9;
  GeometricPointMonitor monitor(2, cfg, gc, &transport);
  for (const auto& e : ZipfEvents(8'000, 2, 41)) {
    agg.Process(static_cast<int>(e.node), e.key, e.ts);
    monitor.Process(static_cast<int>(e.node), e.key, e.ts);
  }
  EXPECT_EQ(transport.stats().messages, agg.stats().network.messages +
                                            monitor.stats().network.messages);
  EXPECT_EQ(transport.stats().bytes,
            agg.stats().network.bytes + monitor.stats().network.bytes);
}

// --- Incremental drift vs full rebuild: same sync arrivals -----------------

// Arrival indices at which `monitor` (a library monitor or the rebuild
// oracle) fired a global sync.
template <typename Monitor>
std::vector<size_t> SyncArrivals(Monitor& monitor,
                                 const std::vector<StreamEvent>& events) {
  std::vector<size_t> syncs;
  for (size_t i = 0; i < events.size(); ++i) {
    if (monitor.Process(static_cast<int>(events[i].node), events[i].key,
                        events[i].ts)) {
      syncs.push_back(i);
    }
  }
  return syncs;
}

TEST(IncrementalDriftTest, SelfJoinSyncsOnSameArrivalsAsRebuild) {
  // Randomized multi-site streams (within the window, where the tracked
  // vector is exactly the rebuilt one): the monitor and the rebuild
  // reference must fire global syncs on identical arrivals.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    EcmConfig cfg = SketchCfg(50 + seed);
    auto events = ZipfEvents(15'000, 3, 100 + seed, /*skew=*/1.2);
    // Calibrate a threshold the run will cross.
    std::vector<EcmSketch<ExponentialHistogram>> probe(
        3, EcmSketch<ExponentialHistogram>(cfg));
    for (const auto& e : events) probe[e.node].Add(e.key, e.ts);
    auto f2 = GlobalSelfJoin(probe, kWindow, cfg.epsilon_sw, 1);
    ASSERT_TRUE(f2.ok());
    GeometricSelfJoinMonitor::Config mc;
    mc.threshold = *f2 * 0.6;
    mc.check_every = 4;
    GeometricSelfJoinMonitor monitor(3, cfg, mc);
    oracle::RebuildGeometricMonitor reference(3, cfg, mc);
    auto inc = SyncArrivals(monitor, events);
    auto reb = SyncArrivals(reference, events);
    EXPECT_GE(inc.size(), 2u) << "seed " << seed;
    EXPECT_EQ(inc, reb) << "seed " << seed;
  }
}

TEST(IncrementalDriftTest, PointMonitorSyncsOnSameArrivalsAsRebuild) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    EcmConfig cfg = SketchCfg(60 + seed, OptimizeFor::kPointQueries);
    auto events = ZipfEvents(12'000, 4, 200 + seed, /*skew=*/0.8,
                             /*domain=*/5'000);
    // Distributed trickle toward a watched victim key.
    Rng attack(seed);
    std::vector<StreamEvent> script;
    script.reserve(events.size() * 3 / 2);
    for (size_t i = 0; i < events.size(); ++i) {
      script.push_back(events[i]);
      if (i > events.size() / 3 && attack.Bernoulli(0.3)) {
        script.push_back(StreamEvent{events[i].ts, 0xBEEF,
                                     static_cast<uint32_t>(attack.Uniform(4))});
      }
    }
    GeometricPointMonitor::Config mc;
    mc.key = 0xBEEF;
    mc.threshold = 1'200;
    mc.check_every = 2;
    GeometricPointMonitor monitor(4, cfg, mc);
    oracle::RebuildGeometricMonitor reference(4, cfg, mc);
    auto inc = SyncArrivals(monitor, script);
    auto reb = SyncArrivals(reference, script);
    EXPECT_GE(inc.size(), 2u) << "seed " << seed;
    EXPECT_EQ(inc, reb) << "seed " << seed;
  }
}

TEST(IncrementalDriftTest, SameEstimatesAndCrossingsAsRebuild) {
  EcmConfig cfg = SketchCfg(71);
  auto events = ZipfEvents(10'000, 2, 301, /*skew=*/0.3);
  std::vector<EcmSketch<ExponentialHistogram>> probe(
      2, EcmSketch<ExponentialHistogram>(cfg));
  for (const auto& e : events) probe[e.node].Add(e.key, e.ts);
  auto f2 = GlobalSelfJoin(probe, kWindow, cfg.epsilon_sw, 1);
  ASSERT_TRUE(f2.ok());
  GeometricSelfJoinMonitor::Config mc;
  mc.threshold = *f2 * 2.0;
  mc.check_every = 2;
  GeometricSelfJoinMonitor inc(2, cfg, mc);
  oracle::RebuildGeometricMonitor reb(2, cfg, mc);
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    ASSERT_EQ(inc.Process(static_cast<int>(e.node), e.key, e.ts),
              reb.Process(static_cast<int>(e.node), e.key, e.ts))
        << "arrival " << i;
    ASSERT_DOUBLE_EQ(inc.GlobalEstimate(), reb.GlobalEstimate());
    ASSERT_EQ(inc.AboveThreshold(), reb.AboveThreshold());
  }
  // Flood one key from both sites to force the crossing in both.
  Timestamp t = events.back().ts;
  bool inc_crossed = false, reb_crossed = false;
  for (int i = 0; i < 20'000 && !(inc_crossed && reb_crossed); ++i) {
    ++t;
    ASSERT_EQ(inc.Process(i % 2, 99, t), reb.Process(i % 2, 99, t))
        << "flood arrival " << i;
    inc_crossed = inc.AboveThreshold();
    reb_crossed = reb.AboveThreshold();
    ASSERT_EQ(inc_crossed, reb_crossed) << "arrival " << i;
  }
  EXPECT_TRUE(inc_crossed);
  EXPECT_EQ(inc.stats().crossings_signaled, reb.crossings_signaled());
}

TEST(IncrementalDriftTest, DetectsCrossingBeyondWindowExpiry) {
  // Streams much longer than the window: untouched entries change only
  // through expiry, which the expiry-event heap replays exactly, and the
  // protocol must detect a genuine crossing after several windows have
  // slid by (behavioral check; the differential cases pin bit-equality).
  auto cfg_r = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 4'000, 83,
                                 OptimizeFor::kSelfJoinQueries);
  ASSERT_TRUE(cfg_r.ok());
  GeometricSelfJoinMonitor::Config mc;
  mc.threshold = 4e6;
  mc.check_every = 4;
  GeometricSelfJoinMonitor monitor(2, *cfg_r, mc);
  // Quiet uniform phase spanning several windows...
  auto events = ZipfEvents(30'000, 2, 53, /*skew=*/0.0, /*domain=*/2'000);
  for (const auto& e : events) {
    monitor.Process(static_cast<int>(e.node), e.key, e.ts);
  }
  EXPECT_FALSE(monitor.AboveThreshold());
  // ...then a single-key flood: F2 over the 4k window rockets past T.
  Timestamp t = events.back().ts;
  for (int i = 0; i < 8'000 && !monitor.AboveThreshold(); ++i) {
    monitor.Process(i % 2, 7, ++t);
  }
  EXPECT_TRUE(monitor.AboveThreshold());
}

TEST(IncrementalDriftTest, ExpiryHeapCatchesDownwardCrossingWithoutRefresh) {
  // Pins the old staleness bug: without a periodic refresh, a tick-based
  // tracker would keep the flooded cells' stale estimates forever once
  // the flood stops — the site ball never reaches the surface and the
  // monitor stays "above" after the window has long expired the flood.
  // The per-counter expiry-event heap must replay the estimate drops
  // exactly, so the monitor fires syncs on the very same arrivals as the
  // full-rebuild reference and detects the downward crossing.
  constexpr uint64_t kWin = 2'000;
  auto cfg_r = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, kWin, 83,
                                 OptimizeFor::kSelfJoinQueries);
  ASSERT_TRUE(cfg_r.ok());
  const EcmConfig cfg = *cfg_r;

  // Quiet-phase keys must not collide with the flood key in any row, so
  // no arrival ever re-touches the flooded cells: only window expiry can
  // move them.
  constexpr uint64_t kFloodKey = 7;
  EcmSketch<ExponentialHistogram> probe(cfg);
  uint32_t flood_cols[kMaxSketchDepth];
  probe.RowBuckets(kFloodKey, flood_cols);
  std::vector<uint64_t> quiet_keys;
  for (uint64_t k = 100; quiet_keys.size() < 50; ++k) {
    uint32_t cols[kMaxSketchDepth];
    probe.RowBuckets(k, cols);
    bool collides = false;
    for (int j = 0; j < cfg.depth; ++j) collides |= cols[j] == flood_cols[j];
    if (!collides) quiet_keys.push_back(k);
  }

  std::vector<StreamEvent> script;
  Timestamp ts = 0;
  for (int i = 0; i < 4'000; ++i) {  // flood: 2 arrivals per tick
    if (i % 2 == 0) ++ts;
    script.push_back(StreamEvent{ts, kFloodKey, static_cast<uint32_t>(i % 2)});
  }
  for (int i = 0; i < 4'000; ++i) {  // quiet: disjoint keys, 2 windows long
    ++ts;
    script.push_back(StreamEvent{ts, quiet_keys[i % quiet_keys.size()],
                                 static_cast<uint32_t>(i % 2)});
  }

  GeometricSelfJoinMonitor::Config mc;
  mc.threshold = 1e6;
  mc.check_every = 2;

  auto run = [&](auto& monitor) {
    std::vector<size_t> syncs;
    size_t above_at = SIZE_MAX, below_at = SIZE_MAX;
    for (size_t i = 0; i < script.size(); ++i) {
      if (monitor.Process(static_cast<int>(script[i].node), script[i].key,
                          script[i].ts)) {
        syncs.push_back(i);
      }
      if (above_at == SIZE_MAX && monitor.AboveThreshold()) above_at = i;
      if (above_at != SIZE_MAX && below_at == SIZE_MAX &&
          !monitor.AboveThreshold()) {
        below_at = i;
      }
    }
    return std::make_tuple(syncs, above_at, below_at);
  };

  GeometricSelfJoinMonitor monitor(2, cfg, mc);
  oracle::RebuildGeometricMonitor reference(2, cfg, mc);
  auto [inc_syncs, inc_above, inc_below] = run(monitor);
  auto [reb_syncs, reb_above, reb_below] = run(reference);
  EXPECT_EQ(inc_syncs, reb_syncs);
  EXPECT_EQ(inc_above, reb_above);
  EXPECT_EQ(inc_below, reb_below);
  // The flood pushes F2 over T; the quiet phase's expiry must bring the
  // monitor back below — an expiry-driven sync, no refresh tick involved.
  ASSERT_NE(inc_above, SIZE_MAX);
  EXPECT_LT(inc_above, 4'000u);
  ASSERT_NE(inc_below, SIZE_MAX) << "downward crossing missed under expiry";
  EXPECT_GE(inc_below, 4'000u);
}

TEST(IncrementalDriftTest, PointMonitorExpiryMatchesRebuildWithoutRefresh) {
  // Same staleness pin for the point monitor: the watched key's rows
  // decay purely by expiry during the quiet phase.
  constexpr uint64_t kWin = 1'500;
  auto cfg_r = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, kWin, 29,
                                 OptimizeFor::kPointQueries);
  ASSERT_TRUE(cfg_r.ok());
  const EcmConfig cfg = *cfg_r;
  constexpr uint64_t kVictim = 0xBEEF;
  EcmSketch<ExponentialHistogram> probe(cfg);
  uint32_t victim_cols[kMaxSketchDepth];
  probe.RowBuckets(kVictim, victim_cols);
  std::vector<uint64_t> quiet_keys;
  for (uint64_t k = 3; quiet_keys.size() < 40; ++k) {
    uint32_t cols[kMaxSketchDepth];
    probe.RowBuckets(k, cols);
    bool collides = false;
    for (int j = 0; j < cfg.depth; ++j) collides |= cols[j] == victim_cols[j];
    if (!collides) quiet_keys.push_back(k);
  }

  std::vector<StreamEvent> script;
  Timestamp ts = 0;
  for (int i = 0; i < 3'000; ++i) {
    if (i % 2 == 0) ++ts;
    script.push_back(StreamEvent{ts, kVictim, static_cast<uint32_t>(i % 2)});
  }
  for (int i = 0; i < 6'000; ++i) {
    ++ts;
    script.push_back(StreamEvent{ts, quiet_keys[i % quiet_keys.size()],
                                 static_cast<uint32_t>(i % 2)});
  }

  GeometricPointMonitor::Config mc;
  mc.key = kVictim;
  mc.threshold = 800;
  mc.check_every = 2;

  auto run = [&](auto& monitor) {
    std::vector<size_t> syncs;
    size_t below_at = SIZE_MAX;
    bool was_above = false;
    for (size_t i = 0; i < script.size(); ++i) {
      if (monitor.Process(static_cast<int>(script[i].node), script[i].key,
                          script[i].ts)) {
        syncs.push_back(i);
      }
      was_above |= monitor.AboveThreshold();
      if (was_above && below_at == SIZE_MAX && !monitor.AboveThreshold()) {
        below_at = i;
      }
    }
    EXPECT_TRUE(was_above);
    return std::make_pair(syncs, below_at);
  };

  GeometricPointMonitor monitor(2, cfg, mc);
  oracle::RebuildGeometricMonitor reference(2, cfg, mc);
  auto [inc_syncs, inc_below] = run(monitor);
  auto [reb_syncs, reb_below] = run(reference);
  EXPECT_EQ(inc_syncs, reb_syncs);
  EXPECT_EQ(inc_below, reb_below);
  ASSERT_NE(inc_below, SIZE_MAX) << "downward crossing missed under expiry";
  EXPECT_GE(inc_below, 3'000u);
}

// --- Counter-generic monitors ---------------------------------------------

// The monitors track expiry through the counters' estimate-change hook
// and have no fallback, so only counters with the hook instantiate.
static_assert(ExpiryTrackedCounter<ExponentialHistogram>);
static_assert(ExpiryTrackedCounter<RandomizedWave>);
static_assert(!ExpiryTrackedCounter<DeterministicWave>);

TEST(CounterGenericMonitorTest, RandomizedWaveSelfJoinMonitorRuns) {
  auto cfg = EcmConfig::Create(0.15, 0.1, WindowMode::kTimeBased, kWindow, 91,
                               OptimizeFor::kPointQueries,
                               CounterFamily::kRandomized, 1 << 16);
  ASSERT_TRUE(cfg.ok());
  GeometricSelfJoinMonitorT<RandomizedWave>::Config mc;
  mc.threshold = 1e12;
  mc.check_every = 8;
  GeometricSelfJoinMonitorT<RandomizedWave> monitor(3, *cfg, mc);
  for (const auto& e : ZipfEvents(9'000, 3, 61, /*skew=*/0.0)) {
    monitor.Process(static_cast<int>(e.node), e.key, e.ts);
  }
  const MonitorStats s = monitor.stats();
  EXPECT_EQ(s.updates, 9'000u);
  EXPECT_GE(s.syncs, 1u);
  EXPECT_LE(s.syncs, 5u);  // huge threshold: near-zero communication
  EXPECT_FALSE(monitor.AboveThreshold());
}

TEST(CounterGenericMonitorTest, RandomizedWavePointMonitorDetectsFlood) {
  auto cfg = EcmConfig::Create(0.15, 0.1, WindowMode::kTimeBased, kWindow, 93,
                               OptimizeFor::kPointQueries,
                               CounterFamily::kRandomized, 1 << 16);
  ASSERT_TRUE(cfg.ok());
  GeometricPointMonitorT<RandomizedWave>::Config mc;
  mc.key = 4242;
  mc.threshold = 600;
  mc.check_every = 2;
  GeometricPointMonitorT<RandomizedWave> monitor(2, *cfg, mc);
  Timestamp t = 1;
  Rng rng(5);
  for (int i = 0; i < 1'200; ++i) {
    monitor.Process(i % 2, 4242, t);
    monitor.Process((i + 1) % 2, rng.Uniform(4'000), t);
    ++t;
  }
  EXPECT_TRUE(monitor.AboveThreshold());
  // The estimate is pinned at the most recent sync — at or after the
  // crossing, but possibly well before the flood's final total.
  EXPECT_GE(monitor.GlobalEstimate(), mc.threshold * 0.8);
  EXPECT_LE(monitor.GlobalEstimate(), 1'200.0 * 1.5);
}

TEST(CounterGenericMonitorTest, RandomizedWavePeriodicAggregator) {
  auto cfg = EcmConfig::Create(0.15, 0.1, WindowMode::kTimeBased, kWindow, 95,
                               OptimizeFor::kPointQueries,
                               CounterFamily::kRandomized, 1 << 16);
  ASSERT_TRUE(cfg.ok());
  PeriodicAggregatorT<RandomizedWave>::Config pc;
  pc.period = 2'000;
  PeriodicAggregatorT<RandomizedWave> agg(2, *cfg, pc);
  auto events = ZipfEvents(10'000, 2, 71, /*skew=*/1.0, /*domain=*/200);
  for (const auto& e : events) {
    agg.Process(static_cast<int>(e.node), e.key, e.ts);
  }
  ASSERT_TRUE(agg.SyncAll().ok());
  auto exact = ComputeExactRangeStats(events, events.back().ts, kWindow);
  auto est = agg.GlobalPointQuery(exact.freqs[0].first, kWindow);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, static_cast<double>(exact.freqs[0].second),
              0.5 * static_cast<double>(exact.l1) + 5.0);
}

// --- ParallelIngest --------------------------------------------------------

TEST(ParallelIngestTest, PeriodicAggregatorMatchesSequentialExactly) {
  // Scheduled propagation is site-local, so the sharded parallel drive
  // must reproduce the sequential run exactly: same pushes, same bytes.
  EcmConfig cfg = SketchCfg(101, OptimizeFor::kPointQueries);
  PeriodicAggregator::Config pc;
  pc.period = 1'500;
  auto events = ZipfEvents(40'000, 8, 81);

  PeriodicAggregator seq(8, cfg, pc);
  for (const auto& e : events) {
    seq.Process(static_cast<int>(e.node), e.key, e.ts);
  }
  const PeriodicAggregator::Stats seq_stats = seq.stats();
  ASSERT_TRUE(seq.SyncAll().ok());
  auto seq_query = seq.GlobalPointQuery(3, kWindow);
  ASSERT_TRUE(seq_query.ok());

  for (int workers : {1, 3, 8}) {
    PeriodicAggregator par(8, cfg, pc);
    ParallelIngestOptions opts;
    opts.num_workers = workers;
    opts.final_sync = false;
    auto report = ParallelIngest(
        events, 8,
        [&par](int site, const StreamEvent& e) {
          par.Process(site, e.key, e.ts);
          return false;  // pushes need no global barrier
        },
        [] {}, opts);
    EXPECT_EQ(report.workers, workers);
    EXPECT_EQ(report.events, events.size());
    EXPECT_EQ(par.stats().updates, seq_stats.updates);
    EXPECT_EQ(par.stats().pushes, seq_stats.pushes);
    EXPECT_EQ(par.stats().periodic_pushes, seq_stats.periodic_pushes);
    EXPECT_EQ(par.stats().network.messages, seq_stats.network.messages);
    EXPECT_EQ(par.stats().network.bytes, seq_stats.network.bytes);
    ASSERT_TRUE(par.SyncAll().ok());
    auto a = par.GlobalPointQuery(3, kWindow);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(*a, *seq_query) << "workers=" << workers;
  }
}

TEST(ParallelIngestTest, GeometricMonitorDetectsCrossingUnderShardedDrive) {
  EcmConfig cfg = SketchCfg(103);
  auto background = ZipfEvents(20'000, 4, 91, /*skew=*/0.0);
  // Calibrate: background F2, then a flood phase that crosses 4x that.
  std::vector<EcmSketch<ExponentialHistogram>> probe(
      4, EcmSketch<ExponentialHistogram>(cfg));
  for (const auto& e : background) probe[e.node].Add(e.key, e.ts);
  auto f2 = GlobalSelfJoin(probe, kWindow, cfg.epsilon_sw, 1);
  ASSERT_TRUE(f2.ok());

  std::vector<StreamEvent> script = background;
  Timestamp t = background.back().ts;
  for (int i = 0; i < 12'000; ++i) {
    ++t;
    script.push_back(StreamEvent{t, 77, static_cast<uint32_t>(i % 4)});
  }

  GeometricSelfJoinMonitor::Config mc;
  mc.threshold = 4.0 * *f2;
  mc.check_every = 8;
  GeometricSelfJoinMonitor monitor(4, cfg, mc);
  ParallelIngestOptions opts;
  opts.num_workers = 4;
  opts.batch_size = 256;
  auto report = ParallelIngest(
      script, 4,
      [&monitor](int site, const StreamEvent& e) {
        return monitor.LocalProcess(site, e.key, e.ts);
      },
      [&monitor] { monitor.GlobalSync(); }, opts);
  EXPECT_TRUE(monitor.AboveThreshold());
  const MonitorStats s = monitor.stats();
  EXPECT_EQ(s.updates, script.size());
  // Every barrier round ran GlobalSync exactly once (plus the final
  // drain), and the transport charged exactly those syncs.
  EXPECT_EQ(s.syncs, report.sync_rounds);
  const uint64_t dim = uint64_t{cfg.width} * static_cast<uint64_t>(cfg.depth);
  EXPECT_EQ(s.network.bytes, s.syncs * 2 * 4 * dim * sizeof(double));
  EXPECT_GE(s.crossings_signaled, 1u);
}

// One worker with batches of one replays the stream in order and drains
// every requested sync right after the arrival that requested it, so the
// split API (LocalProcess + the barrier's GlobalSync) must reproduce the
// sequential Process run exactly: same sync arrivals, same estimate after
// each sync, same stats.
template <typename Monitor>
void ExpectOneWorkerMatchesSequential(int sites, const EcmConfig& cfg,
                                      const typename Monitor::Config& mc,
                                      const std::vector<StreamEvent>& events) {
  Monitor seq(sites, cfg, mc);
  std::vector<size_t> seq_syncs;
  std::vector<double> seq_estimates;
  for (size_t i = 0; i < events.size(); ++i) {
    if (seq.Process(static_cast<int>(events[i].node), events[i].key,
                    events[i].ts)) {
      seq_syncs.push_back(i);
      seq_estimates.push_back(seq.GlobalEstimate());
    }
  }

  Monitor par(sites, cfg, mc);
  std::vector<size_t> par_syncs;
  std::vector<double> par_estimates;
  size_t arrival = 0;
  ParallelIngestOptions opts;
  opts.num_workers = 1;
  opts.batch_size = 1;
  opts.final_sync = false;
  ParallelIngest(
      events, sites,
      [&](int site, const StreamEvent& e) {
        const bool sync = par.LocalProcess(site, e.key, e.ts);
        if (sync) par_syncs.push_back(arrival);
        ++arrival;
        return sync;
      },
      [&] {
        par.GlobalSync();
        par_estimates.push_back(par.GlobalEstimate());
      },
      opts);

  EXPECT_GE(seq_syncs.size(), 3u);
  EXPECT_EQ(par_syncs, seq_syncs);
  EXPECT_EQ(par_estimates, seq_estimates);
  EXPECT_EQ(par.AboveThreshold(), seq.AboveThreshold());
  const MonitorStats a = par.stats();
  const MonitorStats b = seq.stats();
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.local_checks, b.local_checks);
  EXPECT_EQ(a.local_violations, b.local_violations);
  EXPECT_EQ(a.syncs, b.syncs);
  EXPECT_EQ(a.crossings_signaled, b.crossings_signaled);
  EXPECT_EQ(a.network.messages, b.network.messages);
  EXPECT_EQ(a.network.bytes, b.network.bytes);
}

TEST(ParallelIngestTest, GeometricMonitorsMatchSequentialWithOneWorker) {
  // Self-join: background traffic, then a single-key flood past 3x F2.
  EcmConfig cfg = SketchCfg(107);
  auto background = ZipfEvents(8'000, 3, 97, /*skew=*/0.5);
  std::vector<EcmSketch<ExponentialHistogram>> probe(
      3, EcmSketch<ExponentialHistogram>(cfg));
  for (const auto& e : background) probe[e.node].Add(e.key, e.ts);
  auto f2 = GlobalSelfJoin(probe, kWindow, cfg.epsilon_sw, 1);
  ASSERT_TRUE(f2.ok());
  std::vector<StreamEvent> script = background;
  Timestamp t = background.back().ts;
  for (int i = 0; i < 6'000; ++i) {
    script.push_back(StreamEvent{++t, 77, static_cast<uint32_t>(i % 3)});
  }
  GeometricSelfJoinMonitor::Config mc;
  mc.threshold = 3.0 * *f2;
  mc.check_every = 4;
  ExpectOneWorkerMatchesSequential<GeometricSelfJoinMonitor>(3, cfg, mc,
                                                             script);

  // Point monitor: a distributed trickle toward a watched key.
  EcmConfig pcfg = SketchCfg(109, OptimizeFor::kPointQueries);
  auto events = ZipfEvents(8'000, 3, 113, /*skew=*/0.8, /*domain=*/5'000);
  Rng attack(11);
  std::vector<StreamEvent> trickle;
  for (size_t i = 0; i < events.size(); ++i) {
    trickle.push_back(events[i]);
    if (i > events.size() / 4 && attack.Bernoulli(0.3)) {
      trickle.push_back(StreamEvent{events[i].ts, 0xBEEF,
                                    static_cast<uint32_t>(attack.Uniform(3))});
    }
  }
  GeometricPointMonitor::Config pc;
  pc.key = 0xBEEF;
  pc.threshold = 900;
  pc.check_every = 2;
  ExpectOneWorkerMatchesSequential<GeometricPointMonitor>(3, pcfg, pc,
                                                          trickle);
}

TEST(ParallelIngestTest, BarrierDrainsOncePerRoundUnderContention) {
  // Force frequent syncs from every worker: each drain must run exactly
  // once regardless of how many workers requested it.
  constexpr int kSites = 6;
  std::vector<StreamEvent> events;
  Timestamp t = 0;
  for (int i = 0; i < 30'000; ++i) {
    events.push_back(StreamEvent{++t, static_cast<uint64_t>(i),
                                 static_cast<uint32_t>(i % kSites)});
  }
  std::atomic<uint64_t> local_flags{0};
  uint64_t drains = 0;  // written only inside the barrier
  ParallelIngestOptions opts;
  opts.num_workers = kSites;
  opts.batch_size = 64;
  auto report = ParallelIngest(
      events, kSites,
      [&local_flags](int, const StreamEvent& e) {
        const bool request = e.key % 97 == 0;
        if (request) local_flags.fetch_add(1, std::memory_order_relaxed);
        return request;
      },
      [&drains] { ++drains; }, opts);
  EXPECT_EQ(report.sync_rounds, drains);
  EXPECT_GT(drains, 1u);
  // Far fewer drains than requests: rounds coalesce same-batch requests.
  EXPECT_LT(drains, local_flags.load());
}

}  // namespace
}  // namespace ecm
