// Runtime SIMD dispatch for the sketch hot kernels.
//
// The vector kernels (util/simd_kernels.h) are compiled for every tier in
// one translation unit via function target attributes, so a stock Release
// build — no -march=native — still ships AVX2 code and selects it at run
// time from one cpuid probe. `ECM_NATIVE` remains the max-opt vehicle
// (whole-program -march=native + LTO); this layer only decides which
// hand-written kernel variant the portable build executes.
//
// Every vector kernel has a scalar twin that is bit-identical (the hash
// arithmetic is exact integer math), so forcing a tier — via
// ForceSimdLevel() or the ECM_SIMD environment variable — changes speed,
// never results. Tests run the full matrix (forced-scalar, forced-AVX2,
// auto) against the scalar reference; benches force tiers to record
// ablation rows. Auto dispatch picks AVX2 where the CPU has it, else the
// scalar loops (x86-64's one-instruction 64x64->128 multiply beats a
// 2-lane SSE2 emulation, so no tier sits in between).

#ifndef ECM_UTIL_SIMD_H_
#define ECM_UTIL_SIMD_H_

#include <cstdint>

namespace ecm {

/// Instruction-set tiers the hand-written kernels exist for, in strictly
/// increasing capability order. kAVX2 requires a cpuid probe; non-x86
/// builds detect kScalar.
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAVX2 = 1,
};

/// Highest tier this CPU supports (cpuid, probed once and cached).
SimdLevel DetectedSimdLevel();

/// True iff `level`'s kernels may execute on this CPU.
bool SimdLevelSupported(SimdLevel level);

/// The tier kernels dispatch to: a ForceSimdLevel() override if one is
/// set, else the ECM_SIMD environment variable ("scalar" /
/// "avx2"; "auto" or unset defers), else DetectedSimdLevel().
SimdLevel ActiveSimdLevel();

/// Pins dispatch to `level` (tests and bench ablations). Returns false —
/// and changes nothing — if the CPU cannot execute that tier.
bool ForceSimdLevel(SimdLevel level);

/// Clears a ForceSimdLevel() override (back to ECM_SIMD / detection).
void ResetSimdLevel();

/// "scalar" / "avx2" (stable, matches the ECM_SIMD spellings).
const char* SimdLevelName(SimdLevel level);

/// Parses an ECM_SIMD-style spelling. Returns true and sets *out for the
/// two tier names; returns false for "auto", empty, or garbage (callers
/// treat that as "no override").
bool ParseSimdLevel(const char* name, SimdLevel* out);

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
