// ECM-sketch configuration: dimensioning the Count-Min array and splitting
// the total error budget ε between the Count-Min hashing error ε_cm and
// the sliding-window counter error ε_sw (paper §4.1).
//
// Point queries obey |f̂ - f| <= (ε_sw + ε_cm + ε_sw·ε_cm)·‖a_r‖₁ w.p.
// 1-δ (Theorems 1/3), so any split with ε_sw + ε_cm + ε_sw·ε_cm = ε meets
// a total budget ε; the right split is the one minimizing memory:
//
//  * deterministic counters (EH/DW), point queries: memory ∝ 1/(ε_sw·ε_cm)
//    → ε_sw = ε_cm = √(1+ε) − 1  (paper §4.1);
//  * randomized counters (RW): memory ∝ 1/(ε_sw²·ε_cm)
//    → ε_sw = (√(ε²+10ε+9) + ε − 3)/4  (paper §4.2.2, Theorem 3);
//  * self-join / inner-product queries (Theorem 2) have the constraint
//    ε_sw² + 2ε_sw + ε_cm(1+ε_sw)² = ε; SelfJoinSplitSw evaluates the
//    paper's Cardano closed form for the minimizer of the memory
//    objective. tests/ecm_config_test.cc checks it against a ternary
//    search on that (unimodal) objective.

#ifndef ECM_CORE_ECM_CONFIG_H_
#define ECM_CORE_ECM_CONFIG_H_

#include <cstdint>

#include "src/util/hash.h"
#include "src/util/result.h"
#include "src/window/window_spec.h"

namespace ecm {

/// Which query type the ε-split should minimize memory for.
enum class OptimizeFor : uint8_t {
  kPointQueries = 0,
  kSelfJoinQueries = 1,
};

/// Which family of sliding-window counter the sketch will carry (affects
/// the memory model of the split and the δ budget).
enum class CounterFamily : uint8_t {
  kDeterministic = 0,  ///< exponential histogram / deterministic wave
  kRandomized = 1,     ///< randomized wave (δ is split δ_cm = δ_sw = δ/2)
};

/// Full parameter set of an ECM-sketch. Build with EcmConfig::Create.
struct EcmConfig {
  WindowMode mode = WindowMode::kTimeBased;
  uint64_t window_len = 1000;       ///< N (ticks or arrivals)
  uint64_t max_arrivals = 1 << 20;  ///< u(N,S), sizes wave counters
  double epsilon = 0.1;             ///< total error budget
  double delta = 0.1;               ///< total failure probability
  double epsilon_cm = 0.0;          ///< Count-Min share of ε
  double epsilon_sw = 0.0;          ///< window-counter share of ε
  double delta_cm = 0.0;            ///< Count-Min share of δ
  double delta_sw = 0.0;            ///< window-counter share of δ (RW only)
  uint32_t width = 0;               ///< w = ceil(e / ε_cm)
  int depth = 0;                    ///< d = ceil(ln(1 / δ_cm))
  uint64_t seed = 0xEC35EEDULL;     ///< hash seed; equal seeds ⇒ mergeable
  /// Bucket-reduction version, recorded in the serialized config. The
  /// library implements one reduction, so every config holds kFastRange.
  HashReduction hash_reduction = HashReduction::kFastRange;

  /// Computes the optimal split and array dimensions for a total (ε, δ)
  /// budget. Fails on out-of-domain parameters.
  static Result<EcmConfig> Create(
      double epsilon, double delta, WindowMode mode, uint64_t window_len,
      uint64_t seed, OptimizeFor optimize = OptimizeFor::kPointQueries,
      CounterFamily family = CounterFamily::kDeterministic,
      uint64_t max_arrivals = 1 << 20);

  /// True iff sketches built from the two configs can be merged / compared:
  /// identical dimensions, hash seed, window and mode.
  bool CompatibleWith(const EcmConfig& other) const {
    return mode == other.mode && window_len == other.window_len &&
           width == other.width && depth == other.depth &&
           seed == other.seed;
  }

  bool operator==(const EcmConfig&) const = default;
};

/// ε_sw = ε_cm = √(1+ε) − 1: deterministic-counter point-query split.
double PointSplitDeterministic(double epsilon);

/// Theorem-3 split for randomized-wave counters; returns ε_sw (ε_cm follows
/// from the constraint).
double PointSplitRandomizedSw(double epsilon);
double PointSplitRandomizedCm(double epsilon);

/// Self-join split (Theorem 2 constraint), deterministic memory model:
/// the paper's closed-form (Cardano) minimizer of 1/(ε_sw·ε_cm),
///   ε_sw = −1 − (1+ε)·3^(1/3)/A + A/3^(2/3),
///   A = (9+9ε + √3·√(28+57ε+30ε²+ε³))^(1/3).
/// Returns ε_sw; ε_cm = (ε − ε_sw² − 2ε_sw) / (1+ε_sw)².
double SelfJoinSplitSw(double epsilon);

}  // namespace ecm

#endif  // ECM_CORE_ECM_CONFIG_H_
