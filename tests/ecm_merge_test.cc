// Tests for ECM-sketch order-preserving aggregation (§5.3): point and
// self-join accuracy of merged sketches vs a sketch of the union stream,
// the Fig. 2 count-based impossibility, compatibility checks, and the
// lossless RW merge; plus the merge-free union read (SumPointQueryAt /
// SumL1At) against its single-sketch and per-cell definitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "bench/baselines/baselines.h"
#include "src/core/ecm_sketch.h"
#include "src/stream/generators.h"
#include "src/util/random.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 100000;

template <typename Counter>
struct MergedVsUnion {
  EcmSketch<Counter> merged;
  std::vector<StreamEvent> all_events;
  Timestamp now;
};

// Builds `n` compatible sketches over node-sharded Zipf streams, merges
// them, and returns the merged sketch plus the union ground truth.
template <typename Counter>
MergedVsUnion<Counter> BuildMerged(int n, double epsilon, uint64_t seed) {
  auto cfg = EcmConfig::Create(
      epsilon, 0.1, WindowMode::kTimeBased, kWindow, seed,
      OptimizeFor::kPointQueries,
      std::is_same_v<Counter, RandomizedWave> ? CounterFamily::kRandomized
                                              : CounterFamily::kDeterministic,
      /*max_arrivals=*/1 << 18);
  EXPECT_TRUE(cfg.ok());

  ZipfStream::Config zc;
  zc.domain = 2000;
  zc.skew = 1.0;
  zc.num_nodes = n;
  zc.seed = seed;
  ZipfStream stream(zc);
  auto events = stream.Take(40000);

  std::vector<EcmSketch<Counter>> sketches(n, EcmSketch<Counter>(*cfg));
  for (const auto& e : events) sketches[e.node].Add(e.key, e.ts);
  Timestamp now = events.back().ts;
  for (auto& s : sketches) s.AdvanceTo(now);

  std::vector<const EcmSketch<Counter>*> ptrs;
  for (auto& s : sketches) ptrs.push_back(&s);
  auto merged =
      EcmSketch<Counter>::Merge(ptrs, cfg->epsilon_sw, /*seed=*/seed);
  EXPECT_TRUE(merged.ok()) << merged.status();
  return {std::move(*merged), std::move(events), now};
}

struct MergeSweep {
  int nodes;
  double epsilon;
};

class EcmMergeSweep : public ::testing::TestWithParam<MergeSweep> {};

TEST_P(EcmMergeSweep, MergedPointQueriesWithinInflatedBound) {
  const MergeSweep p = GetParam();
  auto r = BuildMerged<ExponentialHistogram>(p.nodes, p.epsilon, 900 + p.nodes);
  auto exact = ComputeExactRangeStats(r.all_events, r.now, 20000);
  ASSERT_GT(exact.l1, 0u);
  // One merge level: window error inflates to ~2eps_sw; total still well
  // under 3*eps against ||a_r||_1 for every key.
  double budget = 3.0 * p.epsilon * static_cast<double>(exact.l1) + 2.0;
  size_t violations = 0;
  for (const auto& [key, count] : exact.freqs) {
    double est = r.merged.PointQueryAt(key, 20000, r.now);
    if (std::abs(est - static_cast<double>(count)) > budget) ++violations;
  }
  EXPECT_LE(violations, exact.freqs.size() / 8 + 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EcmMergeSweep,
                         ::testing::Values(MergeSweep{2, 0.1},
                                           MergeSweep{4, 0.1},
                                           MergeSweep{8, 0.1},
                                           MergeSweep{4, 0.05},
                                           MergeSweep{4, 0.2}));

TEST(EcmMergeTest, MergedSelfJoinTracksUnionStream) {
  auto r = BuildMerged<ExponentialHistogram>(4, 0.1, 55);
  auto exact = ComputeExactRangeStats(r.all_events, r.now, 20000);
  double est = r.merged.InnerProductAt(r.merged, 20000, r.now).value();
  double denom = static_cast<double>(exact.l1) * static_cast<double>(exact.l1);
  EXPECT_LE(std::abs(est - exact.self_join) / denom, 0.5);
}

TEST(EcmMergeTest, MergedL1EqualsSumOfStreams) {
  auto r = BuildMerged<ExponentialHistogram>(3, 0.1, 77);
  EXPECT_EQ(r.merged.l1_lifetime(), r.all_events.size());
}

TEST(EcmMergeTest, RandomizedWaveMergeAccuracy) {
  auto r = BuildMerged<RandomizedWave>(4, 0.15, 33);
  auto exact = ComputeExactRangeStats(r.all_events, r.now, 20000);
  ASSERT_GT(exact.l1, 0u);
  // RW merges losslessly: same (eps, delta) guarantee as a single wave.
  double budget = 2.0 * 0.15 * static_cast<double>(exact.l1) + 2.0;
  size_t violations = 0;
  for (const auto& [key, count] : exact.freqs) {
    double est = r.merged.PointQueryAt(key, 20000, r.now);
    if (std::abs(est - static_cast<double>(count)) > budget) ++violations;
  }
  EXPECT_LE(violations, exact.freqs.size() / 6 + 2);
}

TEST(EcmMergeTest, ExactCounterMergeIsLossless) {
  auto r = BuildMerged<ExactWindow>(3, 0.1, 44);
  auto exact = ComputeExactRangeStats(r.all_events, r.now, 20000);
  // Only Count-Min collisions remain: estimates never under the truth.
  for (const auto& [key, count] : exact.freqs) {
    EXPECT_GE(r.merged.PointQueryAt(key, 20000, r.now) + 1e-9,
              static_cast<double>(count));
  }
}

TEST(EcmMergeTest, CountBasedMergeRejected) {
  auto cfg =
      EcmConfig::Create(0.1, 0.1, WindowMode::kCountBased, 1000, 3);
  ASSERT_TRUE(cfg.ok());
  EcmEh a(*cfg), b(*cfg);
  for (int i = 0; i < 100; ++i) {
    a.Add(1, 0);
    b.Add(2, 0);
  }
  auto m = EcmEh::Merge({&a, &b}, cfg->epsilon_sw);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kUnsupported);
  // The paper's Fig. 2 argument is cited in the message.
  EXPECT_NE(m.status().message().find("Fig. 2"), std::string::npos);
}

TEST(EcmMergeTest, IncompatibleSeedsRejected) {
  auto a = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 1);
  auto b = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  auto m = EcmEh::Merge({&*a, &*b}, 0.05);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIncompatible);
}

TEST(EcmMergeTest, EmptyInputRejected) {
  auto m = EcmEh::Merge({}, 0.05);
  EXPECT_FALSE(m.ok());
}

TEST(EcmMergeTest, MergeOfEmptySketchesIsEmpty) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 9);
  ASSERT_TRUE(cfg.ok());
  EcmEh a(*cfg), b(*cfg);
  auto m = EcmEh::Merge({&a, &b}, cfg->epsilon_sw);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->PointQuery(42, 1000), 0.0);
}

TEST(EcmMergeTest, MergedConfigTracksErrorInflation) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 9);
  ASSERT_TRUE(cfg.ok());
  EcmEh a(*cfg), b(*cfg);
  for (Timestamp t = 1; t <= 100; ++t) {
    a.Add(1, t);
    b.Add(2, t);
  }
  auto m = EcmEh::Merge({&a, &b}, cfg->epsilon_sw);
  ASSERT_TRUE(m.ok());
  // Theorem 4: merged window error = eps + eps' + eps*eps' > leaf eps.
  EXPECT_GT(m->config().epsilon, cfg->epsilon);
}

TEST(EcmMergeTest, MergeIsAssociativeInDistribution) {
  // ((a ⊕ b) ⊕ c) and (a ⊕ (b ⊕ c)) answer queries within each other's
  // error bands (they are not bit-identical, but must agree statistically).
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, kWindow, 21);
  ASSERT_TRUE(cfg.ok());
  EcmEh a(*cfg), b(*cfg), c(*cfg);
  Rng rng(4);
  Timestamp t = 1;
  for (int i = 0; i < 15000; ++i) {
    t += rng.Uniform(3);
    uint64_t key = rng.Uniform(100);
    switch (rng.Uniform(3)) {
      case 0: a.Add(key, t); break;
      case 1: b.Add(key, t); break;
      default: c.Add(key, t); break;
    }
  }
  a.AdvanceTo(t);
  b.AdvanceTo(t);
  c.AdvanceTo(t);
  double eps = cfg->epsilon_sw;
  auto ab = EcmEh::Merge({&a, &b}, eps);
  ASSERT_TRUE(ab.ok());
  auto ab_c = EcmEh::Merge({&*ab, &c}, eps);
  ASSERT_TRUE(ab_c.ok());
  auto bc = EcmEh::Merge({&b, &c}, eps);
  ASSERT_TRUE(bc.ok());
  auto a_bc = EcmEh::Merge({&a, &*bc}, eps);
  ASSERT_TRUE(a_bc.ok());
  for (uint64_t key = 0; key < 100; key += 7) {
    double x = ab_c->PointQueryAt(key, kWindow, t);
    double y = a_bc->PointQueryAt(key, kWindow, t);
    EXPECT_NEAR(x, y, std::max(x, y) * 0.3 + 3.0) << "key " << key;
  }
}

// --- Reading the union from the site sketches (SumPointQueryAt/SumL1At)

// Three sketches of node-sharded Zipf streams whose clocks stop at
// different ticks, the way a coordinator holds site snapshots.
std::vector<EcmEh> BuildSites(const EcmConfig& cfg, Timestamp* now) {
  ZipfStream::Config zc;
  zc.domain = 500;
  zc.num_nodes = 3;
  zc.seed = 61;
  const auto events = ZipfStream(zc).Take(9000);
  std::vector<EcmEh> sites(3, EcmEh(cfg));
  for (const auto& e : events) {
    if (e.ts <= events.back().ts - 40 * e.node) sites[e.node].Add(e.key, e.ts);
  }
  *now = events.back().ts;
  return sites;
}

EcmConfig SumCfg(uint64_t seed = 8) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 5000, seed);
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

TEST(EcmSumReadTest, OneInputIsBitIdenticalToTheSketch) {
  Timestamp now = 0;
  const auto sites = BuildSites(SumCfg(), &now);
  const EcmEh& s = sites[0];
  for (uint64_t range : {100u, 2000u, 5000u}) {
    for (Timestamp at : {now, now + 700}) {
      for (uint64_t key = 1; key <= 60; ++key) {
        auto got = EcmEh::SumPointQueryAt({&s}, key, range, at);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, s.PointQueryAt(key, range, at));
      }
      auto l1 = EcmEh::SumL1At({&s}, range, at);
      ASSERT_TRUE(l1.ok()) << l1.status();
      EXPECT_EQ(*l1, s.EstimateL1At(range, at));
    }
  }
}

TEST(EcmSumReadTest, ThreeInputsSumCellsThenTakeTheRowMin) {
  Timestamp now = 0;
  const auto sites = BuildSites(SumCfg(), &now);
  const std::vector<const EcmEh*> ptrs{&sites[0], &sites[1], &sites[2]};
  const int depth = sites[0].config().depth;
  for (uint64_t range : {300u, 5000u}) {
    for (uint64_t key = 1; key <= 80; ++key) {
      uint32_t cols[kMaxSketchDepth];
      sites[0].RowBuckets(key, cols);
      double want = std::numeric_limits<double>::infinity();
      for (int j = 0; j < depth; ++j) {
        double cell = 0.0;
        for (const EcmEh* s : ptrs) {
          cell += s->CounterAt(j, cols[j]).Estimate(now, range);
        }
        want = std::min(want, cell);
      }
      auto got = EcmEh::SumPointQueryAt(ptrs, key, range, now);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_DOUBLE_EQ(*got, want) << "key " << key;
    }
    double l1 = 0.0;
    for (const EcmEh* s : ptrs) l1 += s->EstimateL1At(range, now);
    auto got = EcmEh::SumL1At(ptrs, range, now);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_DOUBLE_EQ(*got, l1);
  }
}

TEST(EcmSumReadTest, RejectsWhatMergeRejectsAndAClockBehindAnInput) {
  // Statuses, not asserts: each rejection holds in every build type.
  EXPECT_EQ(EcmEh::SumPointQueryAt({}, 1, 100, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EcmEh::SumL1At({}, 100, 10).status().code(),
            StatusCode::kInvalidArgument);

  auto count_cfg =
      EcmConfig::Create(0.1, 0.1, WindowMode::kCountBased, 1000, 3);
  ASSERT_TRUE(count_cfg.ok());
  EcmEh c(*count_cfg);
  c.Add(1, 0);
  EXPECT_EQ(EcmEh::SumPointQueryAt({&c}, 1, 100, 10).status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(EcmEh::SumL1At({&c}, 100, 10).status().code(),
            StatusCode::kUnsupported);

  EcmEh a(SumCfg(1)), b(SumCfg(2));
  a.Add(1, 5);
  b.Add(1, 5);
  EXPECT_EQ(EcmEh::SumPointQueryAt({&a, &b}, 1, 100, 10).status().code(),
            StatusCode::kIncompatible);
  EXPECT_EQ(EcmEh::SumL1At({&a, &b}, 100, 10).status().code(),
            StatusCode::kIncompatible);

  // A query clock behind an input would read its counters backwards.
  EcmEh late(SumCfg(1));
  late.Add(1, 120);
  EXPECT_EQ(EcmEh::SumPointQueryAt({&a, &late}, 1, 100, 100).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EcmEh::SumL1At({&a, &late}, 100, 100).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(EcmEh::SumPointQueryAt({&a, &late}, 1, 100, 120).ok());
}

}  // namespace
}  // namespace ecm
