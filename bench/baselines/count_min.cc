#include "bench/baselines/count_min.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ecm {

CountMinSketch::CountMinSketch(uint32_t width, int depth, uint64_t seed)
    // Depth is capped at kMaxSketchDepth: the one-pass update path fills a
    // fixed d-entry bucket array, so an oversized depth must shrink the
    // sketch rather than overflow the array in Release builds.
    : width_(width),
      depth_(std::min(depth, kMaxSketchDepth)),
      hashes_(seed, depth_) {
  assert(width_ > 0 && depth > 0 && depth <= kMaxSketchDepth);
  table_.assign(static_cast<size_t>(width_) * depth_, 0);
}

CountMinSketch CountMinSketch::FromErrorBounds(double epsilon, double delta,
                                               uint64_t seed) {
  assert(epsilon > 0 && delta > 0 && delta < 1);
  auto width = static_cast<uint32_t>(std::ceil(std::exp(1.0) / epsilon));
  int depth = std::max(1, static_cast<int>(std::ceil(std::log(1.0 / delta))));
  return CountMinSketch(width, depth, seed);
}

void CountMinSketch::Add(uint64_t key, uint64_t count) {
  uint32_t cols[kMaxSketchDepth];
  hashes_.BucketsMixed(key, width_, cols);
  for (int j = 0; j < depth_; ++j) {
    counter_ref(j, cols[j]) += count;
  }
  l1_ += count;
}

uint64_t CountMinSketch::PointQuery(uint64_t key) const {
  uint32_t cols[kMaxSketchDepth];
  hashes_.BucketsMixed(key, width_, cols);
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (int j = 0; j < depth_; ++j) {
    best = std::min(best, counter(j, cols[j]));
  }
  return best;
}

Result<uint64_t> CountMinSketch::InnerProduct(
    const CountMinSketch& other) const {
  if (!CompatibleWith(other)) {
    return Status::Incompatible(
        "InnerProduct requires equal width/depth/seed");
  }
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (int j = 0; j < depth_; ++j) {
    uint64_t row_sum = 0;
    for (uint32_t i = 0; i < width_; ++i) {
      row_sum += counter(j, i) * other.counter(j, i);
    }
    best = std::min(best, row_sum);
  }
  return best;
}

uint64_t CountMinSketch::SelfJoin() const {
  return UnwrapCompatible(InnerProduct(*this), "CountMinSketch::SelfJoin");
}

Status CountMinSketch::MergeWith(const CountMinSketch& other) {
  if (!CompatibleWith(other)) {
    return Status::Incompatible("MergeWith requires equal width/depth/seed");
  }
  for (size_t i = 0; i < table_.size(); ++i) table_[i] += other.table_[i];
  l1_ += other.l1_;
  return Status::OK();
}

}  // namespace ecm
