// Cross-counter property harness: every sliding-window counter type runs
// the same randomized-operation scripts (interleaved single/bulk adds,
// clock jumps, expiry, queries at random ranges) against the exact
// reference, checking each type's error envelope, basic monotonicity
// properties, and serialization stability under mid-stream snapshots.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench/baselines/baselines.h"
#include "src/util/random.h"
#include "src/window/counter_traits.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 50'000;
constexpr double kEpsilon = 0.1;

// Per-type construction and error tolerance.
template <typename Counter>
struct Harness;

template <>
struct Harness<ExponentialHistogram> {
  static ExponentialHistogram Make(uint64_t) {
    return ExponentialHistogram({kEpsilon, kWindow});
  }
  static double Budget(double truth) { return kEpsilon * truth + 1.0; }
};

template <>
struct Harness<DeterministicWave> {
  static DeterministicWave Make(uint64_t) {
    return DeterministicWave({kEpsilon, kWindow, 1 << 18});
  }
  static double Budget(double truth) { return kEpsilon * truth + 1.0; }
};

template <>
struct Harness<RandomizedWave> {
  static RandomizedWave Make(uint64_t seed) {
    RandomizedWave::Config cfg;
    cfg.epsilon = kEpsilon;
    cfg.delta = 0.05;
    cfg.window_len = kWindow;
    cfg.max_arrivals = 1 << 18;
    cfg.seed = seed;
    return RandomizedWave(cfg);
  }
  // Randomized: permit 3x the epsilon band (checked per-query; delta-rare
  // excursions are tolerated by the violation counter in the test).
  static double Budget(double truth) { return 3.0 * kEpsilon * truth + 2.0; }
};

template <>
struct Harness<ExactWindow> {
  static ExactWindow Make(uint64_t) { return ExactWindow({kWindow}); }
  static double Budget(double) { return 1e-9; }
};

class Reference {
 public:
  void Add(Timestamp ts, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) stamps_.push_back(ts);
  }
  double Count(Timestamp now, uint64_t range) const {
    Timestamp boundary = WindowStart(now, range);
    uint64_t n = 0;
    for (Timestamp t : stamps_) {
      if (t > boundary && t <= now) ++n;
    }
    return static_cast<double>(n);
  }

 private:
  std::vector<Timestamp> stamps_;
};

template <typename Counter>
class CounterPropertyTest : public ::testing::Test {};

using AllCounters = ::testing::Types<ExponentialHistogram, DeterministicWave,
                                     RandomizedWave, ExactWindow>;
TYPED_TEST_SUITE(CounterPropertyTest, AllCounters);

TYPED_TEST(CounterPropertyTest, RandomScriptStaysInBudget) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    TypeParam counter = Harness<TypeParam>::Make(seed);
    Reference ref;
    Rng rng(seed);
    Timestamp t = 1;
    int violations = 0, checks = 0;
    for (int op = 0; op < 8000; ++op) {
      switch (rng.Uniform(10)) {
        case 0: {  // bulk add
          uint64_t count = 1 + rng.Uniform(30);
          counter.Add(t, count);
          ref.Add(t, count);
          break;
        }
        case 1:  // clock jump (quiet period)
          t += rng.Uniform(kWindow / 10);
          counter.Expire(t);
          break;
        case 2: {  // query at random range
          uint64_t range = 1 + rng.Uniform(kWindow);
          double est = counter.Estimate(t, range);
          double truth = ref.Count(t, range);
          ++checks;
          if (std::abs(est - truth) > Harness<TypeParam>::Budget(truth)) {
            ++violations;
          }
          break;
        }
        default:  // single add with small gap
          t += rng.Uniform(3);
          counter.Add(t, 1);
          ref.Add(t, 1);
          break;
      }
    }
    // Deterministic types must never violate; randomized type only with
    // probability ~delta per check.
    int allowed = std::is_same_v<TypeParam, RandomizedWave>
                      ? checks / 10 + 2
                      : 0;
    EXPECT_LE(violations, allowed)
        << violations << "/" << checks << " violations at seed " << seed;
  }
}

TYPED_TEST(CounterPropertyTest, EstimateMonotoneInRange) {
  TypeParam counter = Harness<TypeParam>::Make(7);
  Rng rng(7);
  Timestamp t = 1;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(3);
    counter.Add(t, 1);
  }
  // Widening the range never decreases the estimate by more than the
  // boundary uncertainty of the narrower range.
  double prev = 0.0;
  for (uint64_t range = 100; range <= kWindow; range *= 4) {
    double est = counter.Estimate(t, range);
    EXPECT_GE(est, prev * (1.0 - 2.5 * kEpsilon) - 2.0) << "range " << range;
    prev = est;
  }
}

TYPED_TEST(CounterPropertyTest, LifetimeIsExact) {
  TypeParam counter = Harness<TypeParam>::Make(8);
  Rng rng(8);
  Timestamp t = 1;
  uint64_t total = 0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.Uniform(3);
    uint64_t count = 1 + rng.Uniform(5);
    counter.Add(t, count);
    total += count;
  }
  EXPECT_EQ(counter.lifetime_count(), total);
}

TYPED_TEST(CounterPropertyTest, SnapshotSerializationAgreesForever) {
  // Serialize mid-stream; the snapshot must answer any query identically
  // to the live object at the snapshot instant.
  TypeParam counter = Harness<TypeParam>::Make(9);
  Rng rng(9);
  Timestamp t = 1;
  for (int i = 0; i < 10000; ++i) {
    t += rng.Uniform(3);
    counter.Add(t, 1);
  }
  ByteWriter w;
  counter.SerializeTo(&w);
  ByteReader r(w.bytes());
  TypeParam snapshot;
  ASSERT_TRUE(snapshot.DecodeFrom(&r).ok());
  for (uint64_t range : {37u, 512u, 9999u, 50'000u}) {
    EXPECT_EQ(snapshot.Estimate(t, range), counter.Estimate(t, range))
        << "range " << range;
  }
}

TYPED_TEST(CounterPropertyTest, FullExpiryEmptiesEstimates) {
  TypeParam counter = Harness<TypeParam>::Make(10);
  for (Timestamp t = 1; t <= 1000; ++t) counter.Add(t, 1);
  Timestamp far = 1000 + 3 * kWindow;
  counter.Expire(far);
  EXPECT_EQ(counter.Estimate(far, kWindow), 0.0);
}

}  // namespace
}  // namespace ecm
