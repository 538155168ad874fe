// Oracle-differential harness: every sliding-window counter type (EH, DW,
// RW, EquiWidth, Hybrid — plus ExactWindow as a self-check) runs the same
// randomized interleaved Add/expire/query scripts against an exact
// run-length oracle, and each estimate is checked against that counter's
// *documented* error bound:
//  * EH / DW         — relative error <= ε (invariant 1 / wave ranks);
//  * RW              — (ε, δ): per-query band with a δ-rare allowance;
//  * EquiWidth/Hybrid — the §2 "no guarantee" baselines: the error is
//    bounded only by the true mass of the sub-window slots straddling the
//    query boundaries (exactly the failure mode the paper cites);
//  * ExactWindow     — equality.
// Scripts include weighted arrivals and adjacent equal timestamps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "bench/baselines/baselines.h"
#include "src/util/random.h"
#include "src/window/counter_traits.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 4096;
constexpr double kEpsilon = 0.1;
constexpr int kSequences = 1000;
constexpr int kOpsPerSequence = 30;

// Exact run-length oracle over the full arrival history.
class Oracle {
 public:
  void Add(Timestamp ts, uint64_t count) {
    if (!runs_.empty() && runs_.back().ts == ts) {
      runs_.back().count += count;
    } else {
      runs_.push_back(Run{ts, count});
    }
  }
  /// Arrivals with ts in (lo, hi].
  uint64_t CountRange(Timestamp lo, Timestamp hi) const {
    uint64_t n = 0;
    for (const Run& r : runs_) {
      if (r.ts > lo && r.ts <= hi) n += r.count;
    }
    return n;
  }
  /// Arrivals with ts in [lo, lo + len).
  uint64_t CountInterval(Timestamp lo, uint64_t len) const {
    uint64_t n = 0;
    for (const Run& r : runs_) {
      if (r.ts >= lo && r.ts - lo < len) n += r.count;
    }
    return n;
  }

 private:
  struct Run {
    Timestamp ts;
    uint64_t count;
  };
  std::vector<Run> runs_;
};

// True mass of the slot-grid intervals containing the query boundary and
// the query end — the only error the equi-width interpolation baselines
// can introduce.
double BoundarySlotMass(const Oracle& oracle, uint64_t span, Timestamp now,
                        Timestamp boundary) {
  Timestamp eb = (boundary / span) * span;
  Timestamp en = (now / span) * span;
  double mass = static_cast<double>(oracle.CountInterval(eb, span));
  if (en != eb) mass += static_cast<double>(oracle.CountInterval(en, span));
  return mass;
}

template <typename Counter>
struct OracleTraits;

template <>
struct OracleTraits<ExponentialHistogram> {
  static ExponentialHistogram Make(uint64_t) {
    return ExponentialHistogram({kEpsilon, kWindow});
  }
  static double Budget(const ExponentialHistogram&, const Oracle&, Timestamp,
                       Timestamp, double truth) {
    return kEpsilon * truth + 1.0;
  }
  static constexpr bool kRandomized = false;
};

template <>
struct OracleTraits<DeterministicWave> {
  static DeterministicWave Make(uint64_t) {
    return DeterministicWave({kEpsilon, kWindow, 1 << 18});
  }
  static double Budget(const DeterministicWave&, const Oracle&, Timestamp,
                       Timestamp, double truth) {
    return kEpsilon * truth + 1.0;
  }
  static constexpr bool kRandomized = false;
};

template <>
struct OracleTraits<RandomizedWave> {
  static RandomizedWave Make(uint64_t seed) {
    RandomizedWave::Config cfg;
    cfg.epsilon = kEpsilon;
    cfg.delta = 0.05;
    cfg.window_len = kWindow;
    cfg.max_arrivals = 1 << 18;
    cfg.seed = seed;
    return RandomizedWave(cfg);
  }
  // Per-query band at 3x ε; δ-rare excursions are tolerated through the
  // aggregate violation counter.
  static double Budget(const RandomizedWave&, const Oracle&, Timestamp,
                       Timestamp, double truth) {
    return 3.0 * kEpsilon * truth + 2.0;
  }
  static constexpr bool kRandomized = true;
};

template <>
struct OracleTraits<EquiWidthWindow> {
  static EquiWidthWindow Make(uint64_t) {
    // 16 divides kWindow: the ring's (B+1) slots cover a full window and
    // the documented bound below is tight.
    return EquiWidthWindow({kWindow, 16});
  }
  static double Budget(const EquiWidthWindow& c, const Oracle& oracle,
                       Timestamp now, Timestamp boundary, double) {
    return BoundarySlotMass(oracle, c.span(), now, boundary) + 1.0;
  }
  static constexpr bool kRandomized = false;
};

template <>
struct OracleTraits<HybridHistogram> {
  static HybridHistogram Make(uint64_t) {
    // span = (4096 - 256) / 15 = 256; 16 tail slots cover the tail span.
    HybridHistogram::Config cfg;
    cfg.window_len = kWindow;
    cfg.exact_len = 256;
    cfg.num_subwindows = 15;
    return HybridHistogram(cfg);
  }
  static double Budget(const HybridHistogram& c, const Oracle& oracle,
                       Timestamp now, Timestamp boundary, double) {
    // Exact inside the recent buffer; tail errors are bounded by the
    // boundary slots' true mass, as for the pure equi-width ring.
    return BoundarySlotMass(oracle, c.span(), now, boundary) + 1.0;
  }
  static constexpr bool kRandomized = false;
};

template <>
struct OracleTraits<ExactWindow> {
  static ExactWindow Make(uint64_t) { return ExactWindow({kWindow}); }
  static double Budget(const ExactWindow&, const Oracle&, Timestamp,
                       Timestamp, double) {
    return 1e-9;
  }
  static constexpr bool kRandomized = false;
};

template <typename Counter>
class CounterOracleTest : public ::testing::Test {};

using OracleCounters =
    ::testing::Types<ExponentialHistogram, DeterministicWave, RandomizedWave,
                     EquiWidthWindow, HybridHistogram, ExactWindow>;
TYPED_TEST_SUITE(CounterOracleTest, OracleCounters);

TYPED_TEST(CounterOracleTest, RandomizedSequencesStayInDocumentedBounds) {
  int64_t violations = 0, checks = 0;
  for (int seq = 0; seq < kSequences; ++seq) {
    uint64_t seed = 0xACE + static_cast<uint64_t>(seq);
    TypeParam counter = OracleTraits<TypeParam>::Make(seed);
    Oracle oracle;
    Rng rng(seed);
    Timestamp t = 1;
    // One randomized (qnow, range) probe, checked against the oracle and
    // the counter's documented budget. qnow may run ahead of the last
    // arrival (a read clock between updates).
    auto probe = [&](int op, Timestamp qnow) {
      uint64_t range = 1 + rng.Uniform(kWindow + kWindow / 4);
      double est = counter.Estimate(qnow, range);
      uint64_t clamped = range > kWindow ? kWindow : range;
      Timestamp boundary = WindowStart(qnow, clamped);
      double truth = static_cast<double>(oracle.CountRange(boundary, qnow));
      double budget = OracleTraits<TypeParam>::Budget(counter, oracle, qnow,
                                                      boundary, truth);
      ++checks;
      if (std::abs(est - truth) > budget) {
        ++violations;
        if (!OracleTraits<TypeParam>::kRandomized) {
          ADD_FAILURE() << "op=" << op << " qnow=" << qnow
                        << " range=" << range << " est=" << est
                        << " truth=" << truth << " budget=" << budget;
        }
      }
    };
    for (int op = 0; op < kOpsPerSequence; ++op) {
      switch (rng.Uniform(8)) {
        case 0: {  // heavy weighted arrival
          t += rng.Uniform(50);
          uint64_t c = 1 + rng.Uniform(500);
          counter.Add(t, c);
          oracle.Add(t, c);
          break;
        }
        case 1: {  // adjacent equal timestamps (several Adds, same tick)
          t += 1 + rng.Uniform(20);
          int repeats = 2 + static_cast<int>(rng.Uniform(3));
          for (int i = 0; i < repeats; ++i) {
            uint64_t c = 1 + rng.Uniform(30);
            counter.Add(t, c);
            oracle.Add(t, c);
          }
          break;
        }
        case 2:  // quiet period + explicit expiry
          t += rng.Uniform(kWindow / 2);
          counter.Expire(t);
          break;
        case 3:  // single query, occasionally over-length ranges
          probe(op, t);
          break;
        case 4: {  // query-heavy burst: random read clocks and ranges
          Timestamp qnow = t + rng.Uniform(kWindow / 8);
          for (int q = 0; q < 8; ++q) probe(op, qnow + rng.Uniform(16));
          break;
        }
        default: {  // light unit traffic
          t += rng.Uniform(4);
          counter.Add(t, 1);
          oracle.Add(t, 1);
          break;
        }
      }
    }
  }
  if (OracleTraits<TypeParam>::kRandomized) {
    // δ = 0.05 per query at a 3x band: aggregate excursions must stay
    // a small fraction of all checks.
    EXPECT_LE(violations, checks / 20 + 5)
        << violations << "/" << checks << " randomized-band violations";
  } else {
    EXPECT_EQ(violations, 0) << violations << "/" << checks;
  }
}

}  // namespace
}  // namespace ecm
