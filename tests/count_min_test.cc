// Tests for the conventional Count-Min sketch substrate: no
// underestimation, the ε‖a‖₁ overestimation bound, inner products, linear
// merging, and compatibility checking.

#include "bench/baselines/count_min.h"

#include <gtest/gtest.h>

#include <map>

#include "src/util/random.h"

namespace ecm {
namespace {

TEST(CountMinTest, NeverUnderestimates) {
  CountMinSketch cm(50, 3, 1);
  Rng rng(1);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.Uniform(500);
    cm.Add(key);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(cm.PointQuery(key), count);
  }
}

TEST(CountMinTest, ErrorBoundHolds) {
  // w = ceil(e/0.01) = 272: per-point error <= 0.01 * ||a||_1 w.h.p.
  CountMinSketch cm = CountMinSketch::FromErrorBounds(0.01, 0.01, 7);
  Rng rng(2);
  std::map<uint64_t, uint64_t> truth;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    uint64_t key = rng.Uniform(2000);
    cm.Add(key);
    ++truth[key];
  }
  int violations = 0;
  for (const auto& [key, count] : truth) {
    if (cm.PointQuery(key) > count + 0.01 * kN) ++violations;
  }
  EXPECT_LE(violations, static_cast<int>(truth.size() / 50));
}

TEST(CountMinTest, WeightedAdds) {
  CountMinSketch cm(100, 4, 3);
  cm.Add(42, 1000);
  cm.Add(43, 5);
  EXPECT_GE(cm.PointQuery(42), 1000u);
  EXPECT_EQ(cm.l1_norm(), 1005u);
}

TEST(CountMinTest, UnseenKeySmall) {
  CountMinSketch cm = CountMinSketch::FromErrorBounds(0.005, 0.01, 11);
  for (uint64_t k = 0; k < 1000; ++k) cm.Add(k);
  // An unseen key's estimate is only collision mass: <= eps * ||a||1 whp.
  EXPECT_LE(cm.PointQuery(999999), 1000 * 0.005 * 4);
}

TEST(CountMinTest, FromErrorBoundsDimensions) {
  CountMinSketch cm = CountMinSketch::FromErrorBounds(0.1, 0.05, 1);
  EXPECT_EQ(cm.width(), 28u);  // ceil(e / 0.1)
  EXPECT_EQ(cm.depth(), 3);    // ceil(ln 20)
}

TEST(CountMinTest, InnerProductRequiresCompatibility) {
  CountMinSketch a(50, 3, 1);
  CountMinSketch b(50, 3, 2);  // different seed
  EXPECT_FALSE(a.InnerProduct(b).ok());
  CountMinSketch c(60, 3, 1);  // different width
  EXPECT_FALSE(a.InnerProduct(c).ok());
}

TEST(CountMinTest, InnerProductApproximation) {
  CountMinSketch a = CountMinSketch::FromErrorBounds(0.01, 0.01, 5);
  CountMinSketch b = CountMinSketch::FromErrorBounds(0.01, 0.01, 5);
  std::map<uint64_t, uint64_t> fa, fb;
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    uint64_t ka = rng.Uniform(300), kb = rng.Uniform(300);
    a.Add(ka);
    b.Add(kb);
    ++fa[ka];
    ++fb[kb];
  }
  uint64_t truth = 0;
  for (const auto& [k, v] : fa) {
    auto it = fb.find(k);
    if (it != fb.end()) truth += v * it->second;
  }
  auto est = a.InnerProduct(b);
  ASSERT_TRUE(est.ok());
  EXPECT_GE(*est, truth);  // overestimate only
  EXPECT_LE(*est, truth + 0.01 * a.l1_norm() * b.l1_norm());
}

TEST(CountMinTest, SelfJoinUpperBoundsTruth) {
  CountMinSketch cm = CountMinSketch::FromErrorBounds(0.02, 0.01, 9);
  std::map<uint64_t, uint64_t> truth;
  Rng rng(4);
  for (int i = 0; i < 30000; ++i) {
    uint64_t k = rng.Uniform(100);
    cm.Add(k);
    ++truth[k];
  }
  uint64_t f2 = 0;
  for (const auto& [k, v] : truth) f2 += v * v;
  EXPECT_GE(cm.SelfJoin(), f2);
  EXPECT_LE(cm.SelfJoin(), f2 + 0.02 * cm.l1_norm() * cm.l1_norm());
}

TEST(CountMinTest, MergeEqualsUnionStream) {
  CountMinSketch a(64, 4, 77), b(64, 4, 77), u(64, 4, 77);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = rng.Uniform(1000);
    if (i % 2) {
      a.Add(k);
    } else {
      b.Add(k);
    }
    u.Add(k);
  }
  ASSERT_TRUE(a.MergeWith(b).ok());
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.PointQuery(k), u.PointQuery(k));
  }
  EXPECT_EQ(a.l1_norm(), u.l1_norm());
}

TEST(CountMinTest, MergeRejectsIncompatible) {
  CountMinSketch a(64, 4, 1), b(64, 4, 2);
  EXPECT_EQ(a.MergeWith(b).code(), StatusCode::kIncompatible);
}

TEST(CountMinTest, MemoryMatchesDimensions) {
  CountMinSketch cm(100, 5, 1);
  EXPECT_GE(cm.MemoryBytes(), 100 * 5 * sizeof(uint64_t));
}

}  // namespace
}  // namespace ecm
