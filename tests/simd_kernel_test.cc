// Differential suite for the hash paths (util/hash.h, util/simd_kernels.h).
//
// Every vector tier must be bit-identical to the scalar reference — bucket
// placement is part of a sketch's identity, so "close" is not good enough.
// The batch kernels run at every tier the CPU supports, called through
// internal::HashKernelsFor, over adversarial key shapes and every tail
// length; the per-key BucketsMixed loop is checked against per-row Bucket
// at every depth; and one sketch's batched point queries (vector row
// kernel) are checked against its per-key ones (scalar loop).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/simd_kernels.h"

namespace ecm {
namespace {

// The tiers this CPU runs: every level up to the probed one.
std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAVX2}) {
    if (level <= ActiveSimdLevel()) levels.push_back(level);
  }
  return levels;
}

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
  for (SimdLevel level : RunnableLevels()) {
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

TEST(SimdKernelTest, BucketsRowMatchesScalarAtEveryTier) {
  const std::vector<uint64_t> keys = AdversarialKeys();
  std::vector<uint64_t> mixed(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) mixed[k] = Mix64(keys[k]);
  const PairwiseHash hashes[] = {PairwiseHash(0xB00C, 0xC00B),
                                 PairwiseHash(1, 2), PairwiseHash(~0ULL, 0)};
  const uint32_t widths[] = {1, 7, 54, 1u << 20, 0xFFFFFFFFu};
  for (SimdLevel level : RunnableLevels()) {
    const auto& kernels = internal::HashKernelsFor(level);
    for (const PairwiseHash& h : hashes) {
      for (uint32_t width : widths) {
        for (size_t n = 0; n <= keys.size(); n = n * 2 + 1) {
          std::vector<uint32_t> out(n, ~0u);
          kernels.buckets_row(h.a(), h.b(), mixed.data(), n, width,
                              out.data());
          for (size_t k = 0; k < n; ++k) {
            ASSERT_EQ(out[k], h.Bucket(keys[k], width))
                << SimdLevelName(level) << " width=" << width << " n=" << n
                << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, BucketsMixedMatchesPerRowBucketAtEveryDepth) {
  const std::vector<uint64_t> keys = AdversarialKeys();
  const uint32_t widths[] = {1, 2, 3, 54, 1u << 16, 0xFFFFFFFFu};
  for (int d = 1; d <= kMaxSketchDepth; ++d) {
    HashFamily family(0xFACADE + d, d);
    for (uint32_t width : widths) {
      for (uint64_t key : keys) {
        uint32_t got[kMaxSketchDepth];
        family.BucketsMixed(key, width, got);
        for (int row = 0; row < d; ++row) {
          ASSERT_EQ(got[row], family.Bucket(row, key, width))
              << " d=" << d << " width=" << width << " key=" << key
              << " row=" << row;
        }
      }
    }
  }
}

TEST(SimdKernelTest, BucketsRowMajorMatchesPerRowBucket) {
  const std::vector<uint64_t> keys = AdversarialKeys();
  std::vector<uint64_t> mixed(keys.size());
  HashFamily::Mix64Batch(keys.data(), keys.size(), mixed.data());
  constexpr int kDepth = 5;
  HashFamily family(0xB00C, kDepth);
  const uint32_t widths[] = {1, 7, 54, 1u << 20};
  for (uint32_t width : widths) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                     keys.size()}) {
      std::vector<uint32_t> out(kDepth * n, ~0u);
      family.BucketsRowMajor(mixed.data(), n, width, out.data());
      for (int row = 0; row < kDepth; ++row) {
        for (size_t k = 0; k < n; ++k) {
          ASSERT_EQ(out[row * n + k], family.Bucket(row, keys[k], width))
              << " width=" << width << " n=" << n << " row=" << row
              << " k=" << k;
        }
      }
    }
  }
}

// Whole-sketch differential on one sketch: the batched point query hashes
// through Mix64Batch + the key-parallel row kernel, the per-key query
// through the scalar BucketsMixed loop; both must land on the same cells.
TEST(SimdKernelTest, SketchBatchedPointQueryMatchesPerKey) {
  auto config = EcmConfig::Create(0.05, 0.05, WindowMode::kTimeBased, 2048,
                                  /*seed=*/0xABBAEC);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EcmSketch<ExponentialHistogram> sketch(*config);
  Rng rng(0xABBA);
  Timestamp t = 1;
  for (int i = 0; i < 4000; ++i) {
    t += rng.Uniform(4);
    sketch.Add(rng.Uniform(300), t, 1 + rng.Uniform(20));
  }
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 300; ++k) keys.push_back(k);
  // A batch of at least `width` keys reads the cell-estimate table; a
  // small one at a fresh range estimates its own cells.
  ASSERT_GE(keys.size(), config->width);
  for (size_t n : {keys.size(), size_t{13}}) {
    for (uint64_t range : {uint64_t{1024}, uint64_t{700}}) {
      std::vector<double> batched(n);
      sketch.PointQueryBatchAt(keys.data(), n, range, t, batched.data());
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ(batched[k], sketch.PointQueryAt(keys[k], range, t))
            << "n=" << n << " range=" << range << " key=" << keys[k];
      }
    }
  }
}

}  // namespace
}  // namespace ecm
