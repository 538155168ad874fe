// Differential suite for the SIMD hash kernels (util/simd_kernels.h).
//
// Every vector tier must be bit-identical to the scalar reference — bucket
// placement is part of a sketch's identity, so "close" is not good enough.
// The suite runs each kernel under forced-scalar, forced-AVX2 (skipping
// the tier if the CPU lacks it) and auto-dispatch, over randomized
// weighted streams, adversarial key shapes, and every tail length, then
// cross-checks whole-sketch estimates across tiers.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/simd_kernels.h"

namespace ecm {
namespace {

constexpr SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kAVX2};

// Pins dispatch for one scope; restores auto on exit so test order can
// never leak a forced tier.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    forced_ = ForceSimdLevel(level);
  }
  ~ScopedSimdLevel() { ResetSimdLevel(); }
  bool forced() const { return forced_; }

 private:
  bool forced_;
};

// Key mixes that stress both the arithmetic (full-width products, values
// near the modulus) and the tail handling (odd lengths).
std::vector<uint64_t> AdversarialKeys() {
  std::vector<uint64_t> keys = {0,
                                1,
                                ~0ULL,
                                PairwiseHash::kMersenne61,
                                PairwiseHash::kMersenne61 - 1,
                                PairwiseHash::kMersenne61 + 1,
                                1ULL << 63,
                                (1ULL << 61) - 2};
  for (uint64_t i = 0; i < 64; ++i) keys.push_back(i);               // dense
  for (uint64_t i = 0; i < 64; ++i) keys.push_back(i << 32);         // aligned
  for (uint64_t i = 0; i < 64; ++i) keys.push_back(~0ULL - 3 * i);   // high
  Rng rng(0x51D0);
  for (int i = 0; i < 512; ++i) keys.push_back(rng.Next());
  return keys;
}

TEST(SimdKernelTest, Mix64BatchMatchesScalarAtEveryTier) {
  const std::vector<uint64_t> keys = AdversarialKeys();
  for (SimdLevel level : kAllLevels) {
    if (!SimdLevelSupported(level)) continue;
    const auto& kernels = internal::HashKernelsFor(level);
    // Every length exercises a different tail shape.
    for (size_t n = 0; n <= keys.size(); n = n * 2 + 1) {
      std::vector<uint64_t> out(n, 0);
      kernels.mix64_batch(keys.data(), n, out.data());
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ(out[k], Mix64(keys[k]))
            << SimdLevelName(level) << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SimdKernelTest, BucketsMixedMatchesScalarAtEveryTierAndDepth) {
  const std::vector<uint64_t> keys = AdversarialKeys();
  const uint32_t widths[] = {1, 2, 3, 54, 1u << 16, 0xFFFFFFFFu};
  // Depths cover every vector-tail shape of the 4-lane kernels.
  for (int d = 1; d <= 9; ++d) {
    HashFamily family(0xFACADE + d, d);
    for (SimdLevel level : kAllLevels) {
      if (!SimdLevelSupported(level)) continue;
      ScopedSimdLevel scoped(level);
      ASSERT_TRUE(scoped.forced());
      for (uint32_t width : widths) {
        for (uint64_t key : keys) {
          uint32_t got[kMaxSketchDepth];
          family.BucketsMixed(key, width, got);
          for (int row = 0; row < d; ++row) {
            ASSERT_EQ(got[row], family.Bucket(row, key, width))
                << SimdLevelName(level) << " d=" << d << " width=" << width
                << " key=" << key << " row=" << row;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, BucketsRowMajorMatchesScalarAtEveryTier) {
  const std::vector<uint64_t> keys = AdversarialKeys();
  std::vector<uint64_t> mixed(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) mixed[k] = Mix64(keys[k]);
  constexpr int kDepth = 5;
  HashFamily family(0xB00C, kDepth);
  const uint32_t widths[] = {1, 7, 54, 1u << 20};
  for (SimdLevel level : kAllLevels) {
    if (!SimdLevelSupported(level)) continue;
    ScopedSimdLevel scoped(level);
    for (uint32_t width : widths) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       keys.size()}) {
        std::vector<uint32_t> out(kDepth * n, ~0u);
        family.BucketsRowMajor(mixed.data(), n, width, out.data());
        for (int row = 0; row < kDepth; ++row) {
          for (size_t k = 0; k < n; ++k) {
            ASSERT_EQ(out[row * n + k], family.Bucket(row, keys[k], width))
                << SimdLevelName(level) << " width=" << width << " n=" << n
                << " row=" << row << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, ForceSimdLevelRejectsUnsupportedAndReports) {
  // Scalar is always forcible; unsupported tiers are rejected unchanged.
  EXPECT_TRUE(ForceSimdLevel(SimdLevel::kScalar));
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  ResetSimdLevel();
  for (SimdLevel level : kAllLevels) {
    if (SimdLevelSupported(level)) {
      EXPECT_TRUE(ForceSimdLevel(level));
      EXPECT_EQ(ActiveSimdLevel(), level);
      ResetSimdLevel();
    } else {
      SimdLevel before = ActiveSimdLevel();
      EXPECT_FALSE(ForceSimdLevel(level));
      EXPECT_EQ(ActiveSimdLevel(), before);
    }
  }
  // Names round-trip through the parser (the ECM_SIMD spellings).
  for (SimdLevel level : kAllLevels) {
    SimdLevel parsed;
    ASSERT_TRUE(ParseSimdLevel(SimdLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdLevel ignored;
  EXPECT_FALSE(ParseSimdLevel("sse2", &ignored));  // no SSE2 tier
  EXPECT_FALSE(ParseSimdLevel("auto", &ignored));
  EXPECT_FALSE(ParseSimdLevel("", &ignored));
  EXPECT_FALSE(ParseSimdLevel(nullptr, &ignored));
}

// Whole-sketch differential: identical streams into one sketch per tier,
// then every query result must agree bit-for-bit with the scalar sketch
// (same hash family ⇒ same buckets ⇒ same counters).
TEST(SimdKernelTest, SketchEndToEndIdenticalAcrossTiers) {
  auto config = EcmConfig::Create(0.05, 0.05, WindowMode::kTimeBased, 2048,
                                  /*seed=*/0xABBAEC);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  struct TierRun {
    SimdLevel level;
    std::vector<double> estimates;
  };
  std::vector<TierRun> runs;
  for (SimdLevel level : kAllLevels) {
    if (!SimdLevelSupported(level)) continue;
    ScopedSimdLevel scoped(level);
    EcmSketch<ExponentialHistogram> sketch(*config);
    Rng rng(0xABBA);
    Timestamp t = 1;
    for (int i = 0; i < 4000; ++i) {
      t += rng.Uniform(4);
      sketch.Add(rng.Uniform(300), t, 1 + rng.Uniform(20));
    }
    TierRun run{level, {}};
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 300; ++k) keys.push_back(k);
    run.estimates.resize(keys.size());
    sketch.PointQueryBatchAt(keys.data(), keys.size(), /*range=*/1024, t,
                             run.estimates.data());
    for (uint64_t k = 0; k < 300; k += 7) {
      run.estimates.push_back(sketch.PointQueryAt(k, /*range=*/700, t));
    }
    double rows[kMaxSketchDepth];
    for (uint64_t k = 0; k < 50; ++k) {
      sketch.PointQueryRowsAt(k, /*range=*/500, t, rows);
      run.estimates.insert(run.estimates.end(), rows,
                           rows + sketch.config().depth);
    }
    runs.push_back(std::move(run));
  }
  ASSERT_GE(runs.size(), 1u);
  for (size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].estimates, runs[0].estimates)
        << "tier " << SimdLevelName(runs[i].level)
        << " diverged from scalar";
  }
}

TEST(SimdKernelTest, AutoDispatchAgreesWithForcedDetectedTier) {
  const std::vector<uint64_t> keys = AdversarialKeys();
  HashFamily family(0xAD0, 6);
  std::vector<uint32_t> auto_out(6), forced_out(6);
  SimdLevel detected = DetectedSimdLevel();
  // Auto mode runs the detected tier. Skip the tier assertion when
  // ECM_SIMD overrides auto mode.
  ResetSimdLevel();
  if (std::getenv("ECM_SIMD") == nullptr) {
    EXPECT_EQ(ActiveSimdLevel(), detected);
  }
  for (uint64_t key : keys) {
    ResetSimdLevel();
    family.BucketsMixed(key, 54, auto_out.data());
    {
      ScopedSimdLevel scoped(detected);
      family.BucketsMixed(key, 54, forced_out.data());
    }
    ASSERT_EQ(auto_out, forced_out) << "key=" << key;
  }
}

}  // namespace
}  // namespace ecm
