// Tests for src/util: Status/Result, hashing, RNG, bits, byte I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/util/bits.h"
#include "src/util/bytes.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace ecm {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Incompatible("shape mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIncompatible);
  EXPECT_EQ(s.ToString(), "Incompatible: shape mismatch");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 6; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    ECM_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::OutOfRange("too big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = r.MoveValue();
  EXPECT_EQ(v.size(), 3u);
}

Result<int> SumOfTwo(Result<int> a, Result<int> b) {
  int x = 0;
  int y = 0;
  ECM_ASSIGN_OR_RETURN(x, a);
  ECM_ASSIGN_OR_RETURN(y, b);
  return x + y;
}

TEST(ResultTest, AssignOrReturnMacroTwiceInOneScope) {
  auto sum = SumOfTwo(2, 3);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 5);
  // The second use's error propagates.
  auto failed = SumOfTwo(2, Status::OutOfRange("second"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(failed.status().message(), "second");
  EXPECT_EQ(SumOfTwo(Status::Internal("first"), 3).status().code(),
            StatusCode::kInternal);
}

TEST(HashTest, Mix64IsBijectiveOnSamples) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, MulModMersenne61MatchesSmallCases) {
  EXPECT_EQ(PairwiseHash::MulModMersenne61(3, 5), 15u);
  // (p-1) * 2 mod p = p - 2.
  uint64_t p = PairwiseHash::kMersenne61;
  EXPECT_EQ(PairwiseHash::MulModMersenne61(p - 1, 2), p - 2);
}

TEST(HashTest, MulModMersenne61ExactForFullWidthOperands) {
  // Mix64 outputs span all 64 bits; the reduction must stay exact there
  // (a single folding round is not enough — regression guard for the
  // fast-range reduction, which needs Raw() < 2^61).
  uint64_t p = PairwiseHash::kMersenne61;
  EXPECT_EQ(PairwiseHash::MulModMersenne61(1ULL << 61, 1), 1u);
  EXPECT_EQ(PairwiseHash::MulModMersenne61(~0ULL, 1), (~0ULL) % p);
  EXPECT_EQ(PairwiseHash::MulModMersenne61(~0ULL, ~0ULL),
            static_cast<uint64_t>((static_cast<__uint128_t>(~0ULL) *
                                   (~0ULL)) %
                                  p));
}

TEST(HashTest, RawStaysBelowMersenne61) {
  PairwiseHash h(123, 456);
  for (uint64_t k = 0; k < 20000; ++k) {
    EXPECT_LT(h.Raw(k), PairwiseHash::kMersenne61);
  }
}

TEST(HashTest, BucketInRange) {
  PairwiseHash h(123, 456);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_LT(h.Bucket(k, 37), 37u);
  }
}

TEST(HashTest, FamilyIsDeterministic) {
  HashFamily a(99, 4), b(99, 4);
  EXPECT_TRUE(a.SameAs(b));
  for (int row = 0; row < 4; ++row) {
    for (uint64_t k = 0; k < 100; ++k) {
      EXPECT_EQ(a.Bucket(row, k, 101), b.Bucket(row, k, 101));
    }
  }
}

TEST(HashTest, RowsDiffer) {
  HashFamily f(7, 3);
  int diff = 0;
  for (uint64_t k = 0; k < 200; ++k) {
    if (f.Bucket(0, k, 1000) != f.Bucket(1, k, 1000)) ++diff;
  }
  EXPECT_GT(diff, 150);  // rows are independent functions
}

TEST(HashTest, SpreadIsRoughlyUniform) {
  PairwiseHash h(1, 2);
  constexpr uint32_t kWidth = 16;
  std::vector<int> counts(kWidth, 0);
  constexpr int kN = 32000;
  for (uint64_t k = 0; k < kN; ++k) ++counts[h.Bucket(k, kWidth)];
  for (int c : counts) {
    EXPECT_GT(c, kN / kWidth / 2);
    EXPECT_LT(c, kN / kWidth * 2);
  }
}

TEST(HashTest, BucketsMixedAgreesWithPerRowBucket) {
  HashFamily f(321, 5);
  uint32_t cols[kMaxSketchDepth];
  for (uint64_t k = 0; k < 500; ++k) {
    f.BucketsMixed(k * 0x10001ULL, 773, cols);
    for (int row = 0; row < f.depth(); ++row) {
      EXPECT_EQ(cols[row], f.Bucket(row, k * 0x10001ULL, 773));
    }
  }
}

// Chi-square uniformity of the fast-range reduction over the buckets, for
// sequential and adversarially structured key sets. 255 degrees of
// freedom: chi2 above ~330 has p < 0.001, so a comfortably larger bound
// still catches real skew (a broken reduction scores thousands).
TEST(HashTest, FastRangeChiSquareUniform) {
  constexpr uint32_t kWidth = 256;
  constexpr uint64_t kN = 100'000;
  struct KeySet {
    const char* name;
    uint64_t (*key)(uint64_t);
  };
  const KeySet sets[] = {
      {"sequential", [](uint64_t i) { return i; }},
      {"aligned-4k", [](uint64_t i) { return i << 12; }},
      {"ip-like", [](uint64_t i) { return uint64_t{0x0A000000} + i; }},
      {"high-bits", [](uint64_t i) { return i << 32; }},
  };
  PairwiseHash h(911, 17);
  for (const KeySet& s : sets) {
    std::vector<double> counts(kWidth, 0.0);
    for (uint64_t i = 0; i < kN; ++i) {
      uint32_t b = h.Bucket(s.key(i), kWidth);
      ASSERT_LT(b, kWidth);
      counts[b] += 1.0;
    }
    double expected = static_cast<double>(kN) / kWidth;
    double chi2 = 0.0;
    for (double c : counts) {
      chi2 += (c - expected) * (c - expected) / expected;
    }
    EXPECT_LT(chi2, 400.0) << "key set " << s.name;
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GeometricLevelDistribution) {
  Rng rng(3);
  constexpr int kN = 100000;
  int level0 = 0;
  for (int i = 0; i < kN; ++i) {
    if (rng.GeometricLevel(30) == 0) ++level0;
  }
  // P[level == 0] = 1/2.
  EXPECT_NEAR(static_cast<double>(level0) / kN, 0.5, 0.02);
}

TEST(RandomTest, BernoulliMean) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(BitsTest, Log2Helpers) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(1025), 11);
}

TEST(BitsTest, PowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
}

TEST(BitsTest, TrailingZeros) {
  EXPECT_EQ(TrailingZeros(1), 0);
  EXPECT_EQ(TrailingZeros(8), 3);
  EXPECT_EQ(TrailingZeros(12), 2);
  EXPECT_EQ(TrailingZeros(0), 64);
}

TEST(BytesTest, FixedRoundTrip) {
  ByteWriter w;
  w.PutFixed<uint32_t>(0xDEADBEEF);
  w.PutFixed<uint8_t>(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.GetFixed<uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetFixed<uint8_t>(), 7u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, VarintRoundTrip) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1ULL << 20,
                                  1ULL << 40, ~0ULL};
  ByteWriter w;
  for (uint64_t v : values) w.PutVarint(v);
  ByteReader r(w.bytes());
  for (uint64_t v : values) EXPECT_EQ(*r.GetVarint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, SignedVarintRoundTrip) {
  std::vector<int64_t> values = {0, -1, 1, -64, 64, -1000000, 1000000};
  ByteWriter w;
  for (int64_t v : values) w.PutSignedVarint(v);
  ByteReader r(w.bytes());
  for (int64_t v : values) EXPECT_EQ(*r.GetSignedVarint(), v);
}

TEST(BytesTest, DoubleRoundTrip) {
  ByteWriter w;
  w.PutDouble(3.14159);
  w.PutDouble(-0.0);
  ByteReader r(w.bytes());
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.14159);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), -0.0);
}

TEST(BytesTest, TruncatedReadsFailCleanly) {
  ByteWriter w;
  w.PutFixed<uint64_t>(1);
  ByteReader r(w.bytes().data(), 3);  // cut short
  auto res = r.GetFixed<uint64_t>();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, OverlongVarintFails) {
  std::vector<uint8_t> bad(11, 0x80);  // never terminates
  ByteReader r(bad.data(), bad.size());
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(BytesTest, BulkVarintsMatchSingleVarints) {
  const std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1ULL << 35,
                                        ~0ULL, 42};
  ByteWriter one;
  one.PutVarint(7);
  for (uint64_t v : values) one.PutVarint(v);
  ByteWriter bulk;
  bulk.PutVarint(7);  // appends after the bytes already written
  size_t k = 0;
  bulk.PutVarints(values.size(), [&] { return values[k++]; });
  EXPECT_EQ(bulk.bytes(), one.bytes());
  bulk.PutVarints(0, [] { return uint64_t{1}; });
  EXPECT_EQ(bulk.bytes(), one.bytes());
}

TEST(BytesTest, BulkVarintReadsMatchSingleReads) {
  const std::vector<uint64_t> values = {0, 1, 127, 128, 300, ~0ULL, 42};
  ByteWriter w;
  for (uint64_t v : values) w.PutVarint(v);
  ByteReader r(w.bytes());
  std::vector<uint64_t> got;
  ASSERT_TRUE(
      r.GetVarints(values.size(), [&](uint64_t v) { got.push_back(v); }).ok());
  EXPECT_EQ(got, values);
  EXPECT_TRUE(r.exhausted());

  std::vector<uint8_t> truncated = w.bytes();
  truncated.pop_back();  // the last varint loses its only byte
  ByteReader t(truncated);
  EXPECT_EQ(t.GetVarints(values.size(), [](uint64_t) {}).code(),
            StatusCode::kCorruption);
  const std::vector<uint8_t> overlong(11, 0x80);
  ByteReader o(overlong);
  EXPECT_FALSE(o.GetVarints(1, [](uint64_t) {}).ok());
}

TEST(BytesTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ULL, 127ULL, 128ULL, 300ULL, ~0ULL}) {
    ByteWriter w;
    w.PutVarint(v);
    EXPECT_EQ(VarintLength(v), w.size());
  }
}

}  // namespace
}  // namespace ecm
