// Hand-vectorized batch hash kernels behind the runtime SIMD dispatch.
//
// Both kernels implement exact 61-bit Carter–Wegman arithmetic
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

/// The two batch hash kernels, as one dispatch table.
struct HashKernels {
  /// out[k] = Mix64(keys[k]) for k in [0, n) — the shared per-key mixing
  /// pass of every batched sketch query.
  void (*mix64_batch)(const uint64_t* keys, size_t n, uint64_t* out);

  /// Key-parallel one-row sweep: out[k] = FastRange(RawMixed(a, b,
  /// mixed[k]), width) for k in [0, n) — the fill kernel of the row-major
  /// batched point query.
  void (*buckets_row)(uint64_t a, uint64_t b, const uint64_t* mixed,
                      size_t n, uint32_t width, uint32_t* out);
};

/// The kernel table for one tier. Callable only for a tier the CPU runs,
/// i.e. `level <= ActiveSimdLevel()`.
const HashKernels& HashKernelsFor(SimdLevel level);

/// The kernel table of ActiveSimdLevel(), resolved once.
const HashKernels& ActiveHashKernels();

}  // namespace ecm::internal

#endif  // ECM_UTIL_SIMD_KERNELS_H_
