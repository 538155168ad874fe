#include "src/util/simd_kernels.h"

#include "src/util/hash.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define ECM_KERNELS_X64 1
#else
#define ECM_KERNELS_X64 0
#endif

namespace ecm::internal {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference tier
//
// Exactly the pre-SIMD loops, routed through the same PairwiseHash
// primitives the rest of the library uses — the other tiers are
// differential-tested against these.
// ---------------------------------------------------------------------------

constexpr uint64_t kM61 = PairwiseHash::kMersenne61;

inline uint32_t ScalarBucket(uint64_t a, uint64_t b, uint64_t mixed,
                             uint32_t width) {
  uint64_t v = PairwiseHash::MulModMersenne61(a, mixed) + b;
  if (v >= kM61) v -= kM61;
  return PairwiseHash::Reduce(v, width);
}

void Mix64BatchScalar(const uint64_t* keys, size_t n, uint64_t* out) {
  for (size_t k = 0; k < n; ++k) out[k] = Mix64(keys[k]);
}

void BucketsRowScalar(uint64_t a, uint64_t b, const uint64_t* mixed, size_t n,
                      uint32_t width, uint32_t* out) {
  for (size_t k = 0; k < n; ++k) out[k] = ScalarBucket(a, b, mixed[k], width);
}

#if ECM_KERNELS_X64

// ---------------------------------------------------------------------------
// Shared lane math
//
// Each 64-bit lane carries one hash evaluation. The 61-bit Carter–Wegman
// product a*m (a < 2^61, m < 2^64) is built from 32x32 partial products,
// then reduced mod 2^61-1 by a carry-free three-limb fold: with the
// 128-bit product split as prod = hi·2^64 + lo,
//
//     prod ≡ (lo & M61) + (((lo >> 61) | (hi << 3)) & M61) + (hi >> 58)
//
// (2^61 ≡ 1), a sum of three < 2^61 limbs that fits 64 bits — no carry
// detection needed, unlike folding the raw 64-bit halves. One more fold
// plus a conditional subtract lands in the canonical range [0, M61), so
// every tier returns the scalar path's exact representative.
// ---------------------------------------------------------------------------

// --- AVX2 tier (4 lanes; requires the runtime cpuid probe) ----------------

__attribute__((target("avx2"))) inline __m256i CondSubM61Avx2(__m256i x) {
  const __m256i m61 = _mm256_set1_epi64x(static_cast<int64_t>(kM61));
  const __m256i m61m1 = _mm256_set1_epi64x(static_cast<int64_t>(kM61 - 1));
  __m256i over = _mm256_cmpgt_epi64(x, m61m1);
  return _mm256_sub_epi64(x, _mm256_and_si256(over, m61));
}

__attribute__((target("avx2"))) inline __m256i BucketLanesAvx2(
    __m256i a, __m256i b, __m256i m, __m256i widthv) {
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i m61 = _mm256_set1_epi64x(static_cast<int64_t>(kM61));
  __m256i a_hi = _mm256_srli_epi64(a, 32);
  __m256i m_hi = _mm256_srli_epi64(m, 32);
  __m256i ll = _mm256_mul_epu32(a, m);
  __m256i lh = _mm256_mul_epu32(a, m_hi);
  __m256i hl = _mm256_mul_epu32(a_hi, m);
  __m256i hh = _mm256_mul_epu32(a_hi, m_hi);
  __m256i mid = _mm256_add_epi64(_mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                                                  _mm256_and_si256(lh, mask32)),
                                 _mm256_and_si256(hl, mask32));
  __m256i lo = _mm256_or_si256(_mm256_and_si256(ll, mask32),
                               _mm256_slli_epi64(mid, 32));
  __m256i hi = _mm256_add_epi64(
      _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(hl, 32), _mm256_srli_epi64(mid, 32)));
  __m256i x0 = _mm256_and_si256(lo, m61);
  __m256i x1 = _mm256_and_si256(
      _mm256_or_si256(_mm256_srli_epi64(lo, 61), _mm256_slli_epi64(hi, 3)),
      m61);
  __m256i x2 = _mm256_srli_epi64(hi, 58);
  __m256i s = _mm256_add_epi64(_mm256_add_epi64(x0, x1), x2);
  __m256i t =
      _mm256_add_epi64(_mm256_and_si256(s, m61), _mm256_srli_epi64(s, 61));
  t = CondSubM61Avx2(t);
  __m256i v = CondSubM61Avx2(_mm256_add_epi64(t, b));
  return _mm256_srli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(v, 29), widthv),
                           32);
}

// Stores the four lane results (each < 2^32) as consecutive uint32.
__attribute__((target("avx2"))) inline void Store4Lanes(__m256i buckets,
                                                        uint32_t* out) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  __m256i packed = _mm256_permutevar8x32_epi32(buckets, idx);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm256_castsi256_si128(packed));
}

__attribute__((target("avx2"))) inline __m256i MulLo64Avx2(__m256i x,
                                                           __m256i c) {
  __m256i lo = _mm256_mul_epu32(x, c);
  __m256i h1 = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), c);
  __m256i h2 = _mm256_mul_epu32(x, _mm256_srli_epi64(c, 32));
  return _mm256_add_epi64(lo,
                          _mm256_slli_epi64(_mm256_add_epi64(h1, h2), 32));
}

__attribute__((target("avx2"))) inline __m256i Mix64LanesAvx2(__m256i x) {
  const __m256i c1 =
      _mm256_set1_epi64x(static_cast<int64_t>(0x9E3779B97F4A7C15ULL));
  const __m256i c2 =
      _mm256_set1_epi64x(static_cast<int64_t>(0xBF58476D1CE4E5B9ULL));
  const __m256i c3 =
      _mm256_set1_epi64x(static_cast<int64_t>(0x94D049BB133111EBULL));
  x = _mm256_add_epi64(x, c1);
  x = MulLo64Avx2(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), c2);
  x = MulLo64Avx2(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), c3);
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

__attribute__((target("avx2"))) void Mix64BatchAvx2(const uint64_t* keys,
                                                    size_t n, uint64_t* out) {
  size_t k = 0;
  // Two vectors in flight per iteration: one Mix64 chain is serial
  // (add → mul → mul → xor, each mul itself a 3-multiply emulation), so a
  // single-vector loop leaves the multiply ports half idle.
  for (; k + 8 <= n; k += 8) {
    __m256i x0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + k));
    __m256i x1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + k + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                        Mix64LanesAvx2(x0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k + 4),
                        Mix64LanesAvx2(x1));
  }
  for (; k + 4 <= n; k += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + k));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                        Mix64LanesAvx2(x));
  }
  for (; k < n; ++k) out[k] = Mix64(keys[k]);
}

__attribute__((target("avx2"))) void BucketsRowAvx2(uint64_t a, uint64_t b,
                                                    const uint64_t* mixed,
                                                    size_t n, uint32_t width,
                                                    uint32_t* out) {
  const __m256i av = _mm256_set1_epi64x(static_cast<int64_t>(a));
  const __m256i bv = _mm256_set1_epi64x(static_cast<int64_t>(b));
  const __m256i widthv = _mm256_set1_epi64x(static_cast<int64_t>(width));
  size_t k = 0;
  // Two independent bucket chains per iteration for instruction-level
  // parallelism (same rationale as Mix64BatchAvx2).
  for (; k + 8 <= n; k += 8) {
    __m256i m0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mixed + k));
    __m256i m1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mixed + k + 4));
    Store4Lanes(BucketLanesAvx2(av, bv, m0, widthv), out + k);
    Store4Lanes(BucketLanesAvx2(av, bv, m1, widthv), out + k + 4);
  }
  for (; k + 4 <= n; k += 4) {
    __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mixed + k));
    Store4Lanes(BucketLanesAvx2(av, bv, m, widthv), out + k);
  }
  for (; k < n; ++k) out[k] = ScalarBucket(a, b, mixed[k], width);
}

#endif  // ECM_KERNELS_X64

constexpr HashKernels kScalarKernels = {Mix64BatchScalar, BucketsRowScalar};
#if ECM_KERNELS_X64
constexpr HashKernels kAvx2Kernels = {Mix64BatchAvx2, BucketsRowAvx2};
#endif

}  // namespace

const HashKernels& HashKernelsFor(SimdLevel level) {
#if ECM_KERNELS_X64
  switch (level) {
    case SimdLevel::kAVX2:
      return kAvx2Kernels;
    case SimdLevel::kScalar:
      return kScalarKernels;
  }
#else
  (void)level;
#endif
  return kScalarKernels;
}

const HashKernels& ActiveHashKernels() {
  static const HashKernels& kernels = HashKernelsFor(ActiveSimdLevel());
  return kernels;
}

}  // namespace ecm::internal
