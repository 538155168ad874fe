#include "src/core/ecm_config.h"

#include <algorithm>
#include <cmath>

namespace ecm {

double PointSplitDeterministic(double epsilon) {
  return std::sqrt(1.0 + epsilon) - 1.0;
}

double PointSplitRandomizedSw(double epsilon) {
  double root = std::sqrt(epsilon * epsilon + 10.0 * epsilon + 9.0);
  return (root + epsilon - 3.0) / 4.0;
}

double PointSplitRandomizedCm(double epsilon) {
  double root = std::sqrt(epsilon * epsilon + 10.0 * epsilon + 9.0);
  return (3.0 * epsilon - root + 3.0) / (epsilon + root + 1.0);
}

double SelfJoinSplitSw(double epsilon) {
  // Memory ∝ 1/(ε_sw·ε_cm) under the Theorem-2 constraint
  // ε_cm = (ε − s² − 2s)/(1+s)². Minimizing 1/(s·ε_cm(s)) yields the
  // cubic s³ + 3s² + (4+ε)s − ε = 0; substituting s = y − 1 depresses it
  // to y³ + (1+ε)y − 2(1+ε) = 0, whose Cardano solution is the paper's
  // closed form (§4.1; note 28+57ε+30ε²+ε³ = (1+ε)²(28+ε)).
  double e1 = 1.0 + epsilon;
  double radical = std::sqrt(3.0) * std::sqrt(e1 * e1 * (28.0 + epsilon));
  double a = std::cbrt(9.0 * e1 + radical);
  return -1.0 + a / std::cbrt(9.0) - e1 / (std::cbrt(3.0) * a);
}

Result<EcmConfig> EcmConfig::Create(double epsilon, double delta,
                                    WindowMode mode, uint64_t window_len,
                                    uint64_t seed, OptimizeFor optimize,
                                    CounterFamily family,
                                    uint64_t max_arrivals) {
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (window_len == 0) {
    return Status::InvalidArgument("window_len must be positive");
  }

  EcmConfig cfg;
  cfg.mode = mode;
  cfg.window_len = window_len;
  cfg.max_arrivals = max_arrivals;
  cfg.epsilon = epsilon;
  cfg.delta = delta;
  cfg.seed = seed;

  if (family == CounterFamily::kRandomized) {
    // Theorem 3: δ = δ_sw + δ_cm; the paper evaluates δ_cm = δ_sw = δ/2.
    cfg.delta_cm = delta / 2.0;
    cfg.delta_sw = delta / 2.0;
    cfg.epsilon_sw = PointSplitRandomizedSw(epsilon);
    cfg.epsilon_cm = PointSplitRandomizedCm(epsilon);
  } else {
    cfg.delta_cm = delta;
    cfg.delta_sw = 0.0;  // deterministic counters cannot fail
    if (optimize == OptimizeFor::kSelfJoinQueries) {
      cfg.epsilon_sw = SelfJoinSplitSw(epsilon);
      double esw = cfg.epsilon_sw;
      cfg.epsilon_cm =
          (epsilon - esw * esw - 2.0 * esw) / ((1.0 + esw) * (1.0 + esw));
    } else {
      cfg.epsilon_sw = PointSplitDeterministic(epsilon);
      cfg.epsilon_cm = cfg.epsilon_sw;
    }
  }

  cfg.width =
      static_cast<uint32_t>(std::ceil(std::exp(1.0) / cfg.epsilon_cm));
  cfg.depth = std::max(
      1, static_cast<int>(std::ceil(std::log(1.0 / cfg.delta_cm))));
  // The one-pass update path fills a fixed d-entry bucket array; depth
  // beyond kMaxSketchDepth needs delta < 2e-28, so clamping costs nothing
  // real while keeping the hot path branch-free.
  cfg.depth = std::min(cfg.depth, kMaxSketchDepth);
  return cfg;
}

}  // namespace ecm
