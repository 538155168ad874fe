// Tests for the exponential histogram: exactness on small streams, the
// ε-error property over randomized workloads (parameterized sweeps), the
// paper's invariant 1, expiry, serialization, and memory behaviour.

#include "src/window/exponential_histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/random.h"

namespace ecm {
namespace {

// Exact reference: all timestamps, queried by linear scan.
class ExactCounter {
 public:
  void Add(Timestamp ts, uint64_t count = 1) {
    for (uint64_t i = 0; i < count; ++i) stamps_.push_back(ts);
  }
  uint64_t Count(Timestamp now, uint64_t range) const {
    Timestamp boundary = WindowStart(now, range);
    uint64_t n = 0;
    for (Timestamp t : stamps_) {
      if (t > boundary && t <= now) ++n;
    }
    return n;
  }

 private:
  std::vector<Timestamp> stamps_;
};

TEST(ExponentialHistogramTest, EmptyEstimatesZero) {
  ExponentialHistogram eh({0.1, 100});
  EXPECT_EQ(eh.Estimate(50, 100), 0.0);
  EXPECT_EQ(eh.NumBuckets(), 0u);
  EXPECT_TRUE(eh.Empty());
}

TEST(ExponentialHistogramTest, SingleArrival) {
  ExponentialHistogram eh({0.1, 100});
  eh.Add(5);
  EXPECT_EQ(eh.Estimate(5, 100), 1.0);
  EXPECT_EQ(eh.lifetime_count(), 1u);
}

TEST(ExponentialHistogramTest, ExactWhileFewBuckets) {
  // With epsilon = 0.5 the capacity is small, but a handful of arrivals
  // stays exact because every bucket has size 1.
  ExponentialHistogram eh({0.5, 1000});
  for (Timestamp t = 1; t <= 4; ++t) eh.Add(t);
  EXPECT_EQ(eh.Estimate(4, 1000), 4.0);
}

TEST(ExponentialHistogramTest, FullWindowQueryCountsEverything) {
  ExponentialHistogram eh({0.1, 1'000'000});
  for (Timestamp t = 1; t <= 1000; ++t) eh.Add(t);
  double est = eh.Estimate(1000, 1'000'000);
  EXPECT_NEAR(est, 1000.0, 1000.0 * 0.1 + 0.5);
}

TEST(ExponentialHistogramTest, ExpiryDropsOldContent) {
  ExponentialHistogram eh({0.1, 100});
  for (Timestamp t = 1; t <= 50; ++t) eh.Add(t);
  // Jump far ahead: everything expires.
  eh.Add(1000);
  EXPECT_LE(eh.BucketTotal(), 1u + 50u);  // old buckets mostly gone
  eh.Expire(1200);
  EXPECT_EQ(eh.Estimate(1200, 100), 0.0);
}

TEST(ExponentialHistogramTest, ExpiryKeepsWindowContent) {
  ExponentialHistogram eh({0.05, 100});
  for (Timestamp t = 1; t <= 200; ++t) eh.Add(t);
  // Window (100, 200]: exactly 100 arrivals.
  double est = eh.Estimate(200, 100);
  EXPECT_NEAR(est, 100.0, 100.0 * 0.05 + 0.5);
  // Nothing older than ~window+slack is retained.
  EXPECT_LE(eh.BucketTotal(), 130u);
}

TEST(ExponentialHistogramTest, EstimateAtAdvancedClock) {
  ExponentialHistogram eh({0.1, 100});
  for (Timestamp t = 1; t <= 60; ++t) eh.Add(t);
  // Clock moved on to 120 without arrivals: only (20, 120] remains.
  double est = eh.Estimate(120, 100);
  EXPECT_NEAR(est, 40.0, 40.0 * 0.1 + 1.0);
}

TEST(ExponentialHistogramTest, RangeIsClampedToWindow) {
  ExponentialHistogram eh({0.1, 50});
  for (Timestamp t = 1; t <= 100; ++t) eh.Add(t);
  EXPECT_EQ(eh.Estimate(100, 5000), eh.Estimate(100, 50));
}

TEST(ExponentialHistogramTest, BulkAddMatchesLoop) {
  ExponentialHistogram a({0.1, 1000});
  ExponentialHistogram b({0.1, 1000});
  a.Add(10, 37);
  for (int i = 0; i < 37; ++i) b.Add(10, 1);
  EXPECT_EQ(a.BucketTotal(), b.BucketTotal());
  EXPECT_EQ(a.NumBuckets(), b.NumBuckets());
  EXPECT_EQ(a.Estimate(10, 1000), b.Estimate(10, 1000));
}

TEST(ExponentialHistogramTest, InvariantHoldsAfterManyInserts) {
  ExponentialHistogram eh({0.1, 100000});
  Rng rng(17);
  Timestamp t = 1;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(3);
    eh.Add(t);
    if (i % 1000 == 0) {
      EXPECT_EQ(eh.CheckInvariant(), -1) << "after " << i << " inserts";
    }
  }
  EXPECT_EQ(eh.CheckInvariant(), -1);
}

TEST(ExponentialHistogramTest, BucketViewIsConsistent) {
  ExponentialHistogram eh({0.2, 10000});
  for (Timestamp t = 1; t <= 500; ++t) eh.Add(t);
  auto buckets = eh.Buckets();
  ASSERT_EQ(buckets.size(), eh.NumBuckets());
  uint64_t total = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    total += buckets[i].size;
    EXPECT_LE(buckets[i].start, buckets[i].end);
    if (i > 0) {
      EXPECT_EQ(buckets[i].start, buckets[i - 1].end);
      EXPECT_GE(buckets[i].size, 1u);
      // Sizes never increase from old to new.
      EXPECT_LE(buckets[i].size, buckets[i - 1].size);
    }
  }
  EXPECT_EQ(total, eh.BucketTotal());
}

TEST(ExponentialHistogramTest, MemoryIsLogarithmicInCount) {
  ExponentialHistogram small({0.1, 1u << 30});
  ExponentialHistogram large({0.1, 1u << 30});
  for (Timestamp t = 1; t <= 1000; ++t) small.Add(t);
  for (Timestamp t = 1; t <= 100000; ++t) large.Add(t);
  // 100x the stream, far less than 10x the memory.
  EXPECT_LT(large.MemoryBytes(), small.MemoryBytes() * 10);
}

TEST(ExponentialHistogramTest, SerializeRoundTrip) {
  ExponentialHistogram eh({0.1, 1000});
  Rng rng(3);
  Timestamp t = 1;
  for (int i = 0; i < 5000; ++i) {
    t += rng.Uniform(2);
    eh.Add(t);
  }
  ByteWriter w;
  eh.SerializeTo(&w);
  ByteReader r(w.bytes());
  ExponentialHistogram back;
  ASSERT_TRUE(back.DecodeFrom(&r).ok());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.NumBuckets(), eh.NumBuckets());
  EXPECT_EQ(back.BucketTotal(), eh.BucketTotal());
  EXPECT_EQ(back.lifetime_count(), eh.lifetime_count());
  for (uint64_t range : {10u, 100u, 1000u}) {
    EXPECT_EQ(back.Estimate(t, range), eh.Estimate(t, range));
  }
}

TEST(ExponentialHistogramTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk = {0xFF, 0x01, 0x02};
  ByteReader r(junk.data(), junk.size());
  ExponentialHistogram back;
  EXPECT_FALSE(back.DecodeFrom(&r).ok());
}

TEST(ExponentialHistogramTest, DeserializeRejectsTruncation) {
  ExponentialHistogram eh({0.1, 1000});
  for (Timestamp t = 1; t <= 300; ++t) eh.Add(t);
  ByteWriter w;
  eh.SerializeTo(&w);
  auto bytes = w.bytes();
  ByteReader r(bytes.data(), bytes.size() / 2);
  ExponentialHistogram back;
  EXPECT_FALSE(back.DecodeFrom(&r).ok());
}

// ---------------------------------------------------------------------------
// Property sweep: the ε guarantee across epsilons, stream shapes, and
// query ranges. Error must satisfy |est - true| <= ε·true + 1 (the +1
// absorbs the half-bucket rounding on size-1 oldest buckets).
// ---------------------------------------------------------------------------

struct EhSweepParam {
  double epsilon;
  int burst;        // arrivals share timestamps in bursts of this size
  uint64_t gap_max; // max timestamp gap between arrivals
};

class EhErrorSweep : public ::testing::TestWithParam<EhSweepParam> {};

TEST_P(EhErrorSweep, ErrorWithinEpsilon) {
  const EhSweepParam p = GetParam();
  constexpr uint64_t kWindow = 50000;
  ExponentialHistogram eh({p.epsilon, kWindow});
  ExactCounter exact;
  Rng rng(static_cast<uint64_t>(p.epsilon * 1000) + p.burst);

  Timestamp t = 1;
  for (int i = 0; i < 30000; ++i) {
    t += 1 + rng.Uniform(p.gap_max);
    uint64_t count = 1 + rng.Uniform(p.burst);
    eh.Add(t, count);
    exact.Add(t, count);
  }
  for (uint64_t range :
       {uint64_t{100}, uint64_t{1000}, uint64_t{10000}, kWindow}) {
    double est = eh.Estimate(t, range);
    double truth = static_cast<double>(exact.Count(t, range));
    EXPECT_LE(std::abs(est - truth), p.epsilon * truth + 1.0)
        << "range=" << range << " truth=" << truth << " est=" << est;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EhErrorSweep,
    ::testing::Values(EhSweepParam{0.01, 1, 3}, EhSweepParam{0.05, 1, 3},
                      EhSweepParam{0.1, 1, 3}, EhSweepParam{0.25, 1, 3},
                      EhSweepParam{0.5, 1, 3}, EhSweepParam{0.1, 8, 1},
                      EhSweepParam{0.1, 64, 10}, EhSweepParam{0.05, 16, 100},
                      EhSweepParam{0.2, 4, 50}));

// Count-based usage: timestamps are arrival indices; "last N arrivals".
TEST(ExponentialHistogramTest, CountBasedSemantics) {
  constexpr uint64_t kWindow = 1000;  // last 1000 arrivals
  ExponentialHistogram eh({0.1, kWindow});
  // Arrivals 1..5000; the counter tracks a sub-stream: every 3rd arrival
  // is "ours" (like one cell of a count-based ECM-sketch).
  uint64_t ours_total = 0;
  std::vector<uint64_t> ours;
  for (uint64_t idx = 1; idx <= 5000; ++idx) {
    if (idx % 3 == 0) {
      eh.Add(idx);
      ours.push_back(idx);
      ++ours_total;
    }
  }
  // Query: of the last 600 arrivals (indices 4401..5000), how many ours?
  uint64_t truth = 0;
  for (uint64_t idx : ours) {
    if (idx > 4400) ++truth;
  }
  double est = eh.Estimate(5000, 600);
  EXPECT_LE(std::abs(est - static_cast<double>(truth)), 0.1 * truth + 1.0);
}

TEST(ExponentialHistogramTest, TinyEpsilonIsExactForSmallStreams) {
  // epsilon so small the capacity exceeds the stream: no merges, exact.
  ExponentialHistogram eh({0.001, 100000});
  Rng rng(5);
  ExactCounter exact;
  Timestamp t = 1;
  for (int i = 0; i < 500; ++i) {
    t += rng.Uniform(5);
    eh.Add(t);
    exact.Add(t);
  }
  for (uint64_t range : {10ULL, 100ULL, 100000ULL}) {
    EXPECT_NEAR(eh.Estimate(t, range),
                static_cast<double>(exact.Count(t, range)), 1.0);
  }
}

TEST(ExponentialHistogramTest, LifetimeCountsEverything) {
  ExponentialHistogram eh({0.1, 10});
  for (Timestamp t = 1; t <= 1000; ++t) eh.Add(t);
  EXPECT_EQ(eh.lifetime_count(), 1000u);  // expiry does not reduce lifetime
  EXPECT_LT(eh.BucketTotal(), 30u);       // window keeps only ~10
}

// Segmented arena growth regression: a tiny-ε histogram has a per-level
// ring bound (level_capacity_) in the millions, but slot storage must
// track the buckets actually held — geometric doubling, not an upfront
// levels × level_capacity_ preallocation.
TEST(ExponentialHistogramTest, SegmentedArenaAllocatesOnDemand) {
  ExponentialHistogram eh({1e-6, 1'000'000});
  EXPECT_EQ(eh.AllocatedSlots(), 0u);
  Timestamp t = 1;
  for (int i = 0; i < 1000; ++i) eh.Add(++t);
  // ε=1e-6 never merges 1000 arrivals: level 0 holds 1000 buckets and the
  // segment has grown to at most the next power of two, nowhere near the
  // ~1e6-slot ring bound the old flat arena reserved per level.
  EXPECT_EQ(eh.NumBuckets(), 1000u);
  EXPECT_GE(eh.AllocatedSlots(), 1000u);
  EXPECT_LE(eh.AllocatedSlots(), 2048u);
  EXPECT_LT(eh.MemoryBytes(), 64u * 1024u);
}

// The wire format is a layout-independent level log, so the segmented
// arena must re-encode a decoded histogram byte-identically (the same
// bytes the flat-arena encoding produced).
TEST(ExponentialHistogramTest, SegmentedArenaRoundTripIsByteStable) {
  ExponentialHistogram eh({0.05, 50'000});
  Rng rng(21);
  Timestamp t = 1;
  for (int op = 0; op < 300; ++op) {
    t += rng.Uniform(30);
    eh.Add(t, 1 + rng.Uniform(op % 7 == 0 ? 20'000 : 40));
  }
  ByteWriter w;
  eh.SerializeTo(&w);
  ByteReader r(w.bytes());
  ExponentialHistogram back;
  ASSERT_TRUE(back.DecodeFrom(&r).ok());
  EXPECT_TRUE(r.exhausted());
  ByteWriter w2;
  back.SerializeTo(&w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  for (uint64_t range : {100u, 5'000u, 50'000u}) {
    EXPECT_EQ(back.Estimate(t, range), eh.Estimate(t, range));
  }
}

}  // namespace
}  // namespace ecm
