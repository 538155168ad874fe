// Runtime SIMD dispatch for the batch hash kernels.
//
// The vector kernels (util/simd_kernels.h) are compiled for every tier in
// one translation unit via function target attributes, so a stock Release
// build — no -march=native — still ships AVX2 code and selects it at run
// time from one cpuid probe. `ECM_NATIVE` remains the max-opt vehicle
// (whole-program -march=native + LTO); this layer only decides which
// hand-written kernel variant the portable build executes.
//
// Every vector kernel has a scalar twin that is bit-identical (the hash
// arithmetic is exact integer math), so the tier changes speed, never
// results. The probe picks AVX2 where the CPU has it, else the scalar
// loops (x86-64's one-instruction 64x64->128 multiply beats a 2-lane SSE2
// emulation, so no tier sits in between). Tests and benches that compare
// tiers call internal::HashKernelsFor(level) directly.

#ifndef ECM_UTIL_SIMD_H_
#define ECM_UTIL_SIMD_H_

#include <cstdint>

namespace ecm {

/// Instruction-set tiers the hand-written kernels exist for, in strictly
/// increasing capability order. kAVX2 requires a cpuid probe; non-x86
/// builds run kScalar.
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAVX2 = 1,
};

/// The highest tier this CPU supports (cpuid, probed once and cached):
/// the tier the batch kernels run. Every tier up to it can execute here.
SimdLevel ActiveSimdLevel();

/// "scalar" / "avx2".
const char* SimdLevelName(SimdLevel level);

/// Read-prefetch of the cache line holding `p` (no-op where unsupported).
/// The d-row sketch walks issue these for all d counter slots before
/// touching the first one, hiding the row-to-row cache misses.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace ecm

#endif  // ECM_UTIL_SIMD_H_
