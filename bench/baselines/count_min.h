// Count-Min sketch (Cormode & Muthukrishnan, J. Algorithms 2005) over
// full-history streams — the conventional-stream substrate the ECM-sketch
// builds on (paper §3). The library's sketches and the geometric monitor
// use EcmSketch instead, so this class is not part of the library: it is
// the linear baseline of the ecm_baselines library, which count_min_test
// checks and bench_micro_counters' BM_CountMinAdd times.
//
// Guarantees with w = ceil(e/ε), d = ceil(ln(1/δ)): a point query
// overestimates by at most ε‖a‖₁ with probability >= 1-δ; analogous bounds
// hold for inner products and range sums.

#ifndef ECM_BENCH_BASELINES_COUNT_MIN_H_
#define ECM_BENCH_BASELINES_COUNT_MIN_H_

#include <cstdint>
#include <vector>

#include "src/util/hash.h"
#include "src/util/result.h"

namespace ecm {

/// Classic Count-Min sketch with 64-bit integer counters.
class CountMinSketch {
 public:
  /// Builds a w×d sketch whose hash functions derive from `seed`. Sketches
  /// that must be merged or compared (inner products) need equal (w, d,
  /// seed).
  CountMinSketch(uint32_t width, int depth, uint64_t seed);

  /// Builds a sketch from accuracy targets: w = ceil(e/epsilon),
  /// d = ceil(ln(1/delta)).
  static CountMinSketch FromErrorBounds(double epsilon, double delta,
                                        uint64_t seed);

  /// Adds `count` occurrences of `key`.
  void Add(uint64_t key, uint64_t count = 1);

  /// Point query: estimated frequency of `key` (never an underestimate).
  uint64_t PointQuery(uint64_t key) const;

  /// Estimated inner product Σ_x f_a(x)·f_b(x) with another sketch of
  /// identical shape and seed.
  Result<uint64_t> InnerProduct(const CountMinSketch& other) const;

  /// Estimated self-join size (second frequency moment F₂).
  uint64_t SelfJoin() const;

  /// Adds every counter of `other` into this sketch (linear merge).
  Status MergeWith(const CountMinSketch& other);

  /// Total stream weight ‖a‖₁ (sum of all Add counts).
  uint64_t l1_norm() const { return l1_; }

  uint32_t width() const { return width_; }
  int depth() const { return depth_; }
  uint64_t seed() const { return hashes_.seed(); }

  /// Raw counter access (row-major).
  uint64_t counter(int row, uint32_t col) const {
    return table_[static_cast<size_t>(row) * width_ + col];
  }
  uint64_t& counter_ref(int row, uint32_t col) {
    return table_[static_cast<size_t>(row) * width_ + col];
  }

  /// True iff shapes and hash seeds match (mergeable / comparable).
  bool CompatibleWith(const CountMinSketch& other) const {
    return width_ == other.width_ && depth_ == other.depth_ &&
           hashes_.SameAs(other.hashes_);
  }

  size_t MemoryBytes() const {
    return sizeof(*this) + table_.size() * sizeof(uint64_t);
  }

 private:
  uint32_t width_;
  int depth_;
  HashFamily hashes_;
  std::vector<uint64_t> table_;  // row-major d × w
  uint64_t l1_ = 0;
};

}  // namespace ecm

#endif  // ECM_BENCH_BASELINES_COUNT_MIN_H_
