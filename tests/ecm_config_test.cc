// Tests for the ε-split optimization (§4.1): the split formulas satisfy
// their error-budget constraints, minimize the memory objective, and the
// derived Count-Min dimensions follow.

#include "src/core/ecm_config.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ecm {
namespace {

// Reference for the self-join split: a 200-step ternary search for the
// minimum of the memory objective 1/(ε_sw·ε_cm) over the feasible ε_sw
// range (0, √(1+ε)−1), where ε_cm stays positive. The objective is
// unimodal, so the search converges to the closed form's Cardano root.
double SelfJoinSplitSwBySearch(double epsilon) {
  auto cm = [epsilon](double esw) {
    return (epsilon - esw * esw - 2.0 * esw) / ((1.0 + esw) * (1.0 + esw));
  };
  double lo = 1e-9;
  double hi = std::sqrt(1.0 + epsilon) - 1.0 - 1e-9;
  for (int iter = 0; iter < 200; ++iter) {
    double m1 = lo + (hi - lo) / 3.0;
    double m2 = hi - (hi - lo) / 3.0;
    if (1.0 / (m1 * cm(m1)) < 1.0 / (m2 * cm(m2))) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return (lo + hi) / 2.0;
}

TEST(EcmConfigTest, RejectsBadParameters) {
  EXPECT_FALSE(
      EcmConfig::Create(0.0, 0.1, WindowMode::kTimeBased, 100, 1).ok());
  EXPECT_FALSE(
      EcmConfig::Create(1.5, 0.1, WindowMode::kTimeBased, 100, 1).ok());
  EXPECT_FALSE(
      EcmConfig::Create(0.1, 0.0, WindowMode::kTimeBased, 100, 1).ok());
  EXPECT_FALSE(
      EcmConfig::Create(0.1, 1.0, WindowMode::kTimeBased, 100, 1).ok());
  EXPECT_FALSE(EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 0, 1).ok());
}

class SplitSweep : public ::testing::TestWithParam<double> {};

TEST_P(SplitSweep, DeterministicPointSplitMeetsBudget) {
  double eps = GetParam();
  double esw = PointSplitDeterministic(eps);
  EXPECT_GT(esw, 0.0);
  // eps_sw = eps_cm: the combined error equals the budget exactly.
  EXPECT_NEAR(esw + esw + esw * esw, eps, 1e-12);
}

TEST_P(SplitSweep, RandomizedPointSplitMeetsBudget) {
  double eps = GetParam();
  double esw = PointSplitRandomizedSw(eps);
  double ecm_eps = PointSplitRandomizedCm(eps);
  EXPECT_GT(esw, 0.0);
  EXPECT_GT(ecm_eps, 0.0);
  EXPECT_NEAR(esw + ecm_eps + esw * ecm_eps, eps, 1e-9);
}

TEST_P(SplitSweep, RandomizedSplitMinimizesRwMemoryModel) {
  // Memory model 1/(esw^2 * ecm): the Theorem-3 closed form must beat any
  // nearby perturbation that still meets the budget.
  double eps = GetParam();
  double esw = PointSplitRandomizedSw(eps);
  auto mem = [eps](double sw) {
    double cm = (eps - sw) / (1.0 + sw);
    return 1.0 / (sw * sw * cm);
  };
  double best = mem(esw);
  for (double d : {-0.01, -0.001, 0.001, 0.01}) {
    double sw = esw + d * eps;
    if (sw <= 0.0 || (eps - sw) <= 0.0) continue;
    EXPECT_GE(mem(sw), best * (1.0 - 1e-6)) << "perturbation " << d;
  }
}

TEST_P(SplitSweep, SelfJoinSplitMeetsTheorem2Constraint) {
  double eps = GetParam();
  double esw = SelfJoinSplitSw(eps);
  double cm = (eps - esw * esw - 2.0 * esw) / ((1.0 + esw) * (1.0 + esw));
  EXPECT_GT(esw, 0.0);
  EXPECT_GT(cm, 0.0);
  EXPECT_NEAR(esw * esw + 2.0 * esw + cm * (1.0 + esw) * (1.0 + esw), eps,
              1e-9);
}

TEST_P(SplitSweep, SelfJoinSplitMinimizesMemory) {
  double eps = GetParam();
  double esw = SelfJoinSplitSw(eps);
  auto mem = [eps](double sw) {
    double cm = (eps - sw * sw - 2.0 * sw) / ((1.0 + sw) * (1.0 + sw));
    return 1.0 / (sw * cm);
  };
  double best = mem(esw);
  for (double d : {-0.02, -0.002, 0.002, 0.02}) {
    double sw = esw + d * eps;
    double cm = (eps - sw * sw - 2.0 * sw);
    if (sw <= 0.0 || cm <= 0.0) continue;
    EXPECT_GE(mem(sw), best * (1.0 - 1e-6)) << "perturbation " << d;
  }
}

TEST_P(SplitSweep, ClosedFormMatchesNumericOptimizer) {
  // The paper's Cardano closed form and a ternary-search minimizer must
  // agree: same objective, two solution methods. The search is the less
  // exact of the two; they differ by a few 1e-8 relative.
  double eps = GetParam();
  double esw = SelfJoinSplitSw(eps);
  EXPECT_NEAR(esw, SelfJoinSplitSwBySearch(eps), 1e-7 * esw);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, SplitSweep,
                         ::testing::Values(0.02, 0.05, 0.1, 0.15, 0.2, 0.25,
                                           0.4));

TEST(EcmConfigTest, CreateDeterministicPoint) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 42);
  ASSERT_TRUE(cfg.ok());
  EXPECT_DOUBLE_EQ(cfg->epsilon_sw, cfg->epsilon_cm);
  EXPECT_EQ(cfg->width,
            static_cast<uint32_t>(std::ceil(std::exp(1.0) / cfg->epsilon_cm)));
  EXPECT_EQ(cfg->depth, 3);  // ceil(ln 10)
  EXPECT_DOUBLE_EQ(cfg->delta_cm, 0.1);
}

TEST(EcmConfigTest, CreateRandomizedSplitsDelta) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 42,
                               OptimizeFor::kPointQueries,
                               CounterFamily::kRandomized);
  ASSERT_TRUE(cfg.ok());
  EXPECT_DOUBLE_EQ(cfg->delta_cm, 0.05);
  EXPECT_DOUBLE_EQ(cfg->delta_sw, 0.05);
  // RW split shifts budget toward the expensive 1/esw^2 term:
  // esw > ecm at equal epsilon.
  EXPECT_GT(cfg->epsilon_sw, cfg->epsilon_cm);
}

TEST(EcmConfigTest, SelfJoinOptimizationUsesSmallerSwShare) {
  auto point = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 42,
                                 OptimizeFor::kPointQueries);
  auto sj = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 42,
                              OptimizeFor::kSelfJoinQueries);
  ASSERT_TRUE(point.ok());
  ASSERT_TRUE(sj.ok());
  // Theorem 2's 2*esw term makes window error twice as costly: the
  // self-join split allocates less to esw.
  EXPECT_LT(sj->epsilon_sw, point->epsilon_sw);
}

TEST(EcmConfigTest, CompatibilityChecksShapeSeedWindowMode) {
  auto a = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 42);
  auto b = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->CompatibleWith(*b));
  b->seed = 43;
  EXPECT_FALSE(a->CompatibleWith(*b));
  b->seed = 42;
  b->window_len = 999;
  EXPECT_FALSE(a->CompatibleWith(*b));
  b->window_len = 1000;
  b->mode = WindowMode::kCountBased;
  EXPECT_FALSE(a->CompatibleWith(*b));
}

TEST(EcmConfigTest, TighterEpsilonMeansWiderSketch) {
  auto loose = EcmConfig::Create(0.2, 0.1, WindowMode::kTimeBased, 1000, 1);
  auto tight = EcmConfig::Create(0.02, 0.1, WindowMode::kTimeBased, 1000, 1);
  ASSERT_TRUE(loose.ok() && tight.ok());
  EXPECT_GT(tight->width, loose->width * 5);
}

}  // namespace
}  // namespace ecm
