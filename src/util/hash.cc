#include "src/util/hash.h"

namespace ecm {

PairwiseHash::PairwiseHash(uint64_t seed_a, uint64_t seed_b) {
  a_ = Mix64(seed_a) % (kMersenne61 - 1) + 1;  // in [1, p)
  b_ = Mix64(seed_b) % kMersenne61;            // in [0, p)
}

HashFamily::HashFamily(uint64_t seed, int d, HashReduction) : seed_(seed) {
  funcs_.reserve(d);
  for (int i = 0; i < d; ++i) {
    // Distinct, deterministic sub-seeds per row.
    uint64_t sa = Mix64(seed ^ (0xA5A5A5A5ULL + 2 * i));
    uint64_t sb = Mix64(seed ^ (0x5A5A5A5AULL + 2 * i + 1));
    funcs_.emplace_back(sa, sb);
  }
}

void HashFamily::BucketsRowMajor(const uint64_t* mixed, size_t n,
                                 uint32_t width, uint32_t* out) const {
  const auto& kernels = internal::ActiveHashKernels();
  for (size_t row = 0; row < funcs_.size(); ++row) {
    kernels.buckets_row(funcs_[row].a(), funcs_[row].b(), mixed, n, width,
                        out + row * n);
  }
}

}  // namespace ecm
