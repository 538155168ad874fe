// Hand-vectorized hash kernels behind the runtime SIMD dispatch.
//
// All three kernels implement exact 61-bit Carter–Wegman arithmetic
// (util/hash.h) with integer SIMD, so every tier is bit-identical to the
// scalar reference — the property the sketch depends on, since bucket
// placement is part of a sketch's identity.
//
// The kernels come as function-pointer tables, one per SimdLevel, all
// compiled into the portable build via per-function target attributes —
// stock Release binaries carry the AVX2 code and select it at run time.

#ifndef ECM_UTIL_SIMD_KERNELS_H_
#define ECM_UTIL_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "src/util/simd.h"

namespace ecm::internal {

/// The three hash hot kernels, as one dispatch table.
struct HashKernels {
  /// out[k] = Mix64(keys[k]) for k in [0, n) — the shared per-key mixing
  /// pass of every batched sketch query.
  void (*mix64_batch)(const uint64_t* keys, size_t n, uint64_t* out);

  /// Row-parallel one-key walk: out[j] = FastRange(RawMixed(a[j], b[j],
  /// mixed), width) for j in [0, d). `a`/`b` are the hash family's SoA
  /// coefficient arrays, padded so full-vector loads at any j < d are in
  /// bounds (HashFamily::kCoeffPad); exactly d entries of `out` are
  /// written.
  void (*buckets_mixed)(const uint64_t* a, const uint64_t* b, size_t d,
                        uint64_t mixed, uint32_t width, uint32_t* out);

  /// Key-parallel one-row sweep: out[k] = FastRange(RawMixed(a, b,
  /// mixed[k]), width) for k in [0, n) — the fill kernel of the row-major
  /// batched point query.
  void (*buckets_row)(uint64_t a, uint64_t b, const uint64_t* mixed,
                      size_t n, uint32_t width, uint32_t* out);
};

/// The kernel table for one tier (callable only if SimdLevelSupported).
const HashKernels& HashKernelsFor(SimdLevel level);

/// The kernel table dispatch resolves to right now.
inline const HashKernels& ActiveHashKernels() {
  return HashKernelsFor(ActiveSimdLevel());
}

}  // namespace ecm::internal

#endif  // ECM_UTIL_SIMD_KERNELS_H_
