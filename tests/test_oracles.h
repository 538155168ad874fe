// Test-only scan oracles for the counters' indexed Estimate paths.
//
// Each oracle recomputes an estimate the slow, obvious way from the
// counter's public state, so the differential suites can pin the fast
// paths bit for bit without the library shipping a second query path.

#ifndef ECM_TESTS_TEST_ORACLES_H_
#define ECM_TESTS_TEST_ORACLES_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/window/exponential_histogram.h"
#include "src/window/randomized_wave.h"
#include "src/window/window_spec.h"

namespace ecm::oracle {

/// ExponentialHistogram::Estimate by a linear walk over Buckets(): sum
/// every bucket that ends past the window boundary, and take half of the
/// oldest such bucket off if it straddles the boundary (paper §3). The
/// sums are exact for in-window masses below 2^53, so this equals the
/// indexed Estimate bit for bit there.
inline double ScanEstimate(const ExponentialHistogram& eh, Timestamp now,
                           uint64_t range) {
  const Timestamp boundary =
      WindowStart(now, std::min(range, eh.window_len()));
  double sum = 0.0;
  bool oldest = true;
  for (const BucketView& b : eh.Buckets()) {
    if (b.end <= boundary) continue;
    sum += static_cast<double>(b.size);
    if (oldest) {
      oldest = false;
      const bool fully_inside =
          boundary == 0 || b.start > boundary || b.start >= b.end;
      if (!fully_inside) sum -= static_cast<double>(b.size) / 2.0;
    }
  }
  return sum;
}

/// RandomizedWave::Estimate by a linear walk over subwaves(): per
/// sub-wave, the finest level whose retained sample still reaches the
/// boundary counts its in-range runs one by one (the coarsest level is
/// the fallback); the answer is the median over sub-waves.
inline double ScanEstimate(const RandomizedWave& rw, Timestamp now,
                           uint64_t range) {
  const Timestamp boundary =
      WindowStart(now, std::min(range, rw.window_len()));
  const int top = rw.num_levels() - 1;
  std::vector<double> ests;
  for (const RandomizedWave::SubWave& sw : rw.subwaves()) {
    double est = static_cast<double>(sw.sizes[top]) *
                 static_cast<double>(1ULL << top);
    for (int l = 0; l <= top; ++l) {
      const auto& level = sw.levels[l];
      const bool covers =
          !sw.truncated[l] || (!level.empty() && level.front().ts <= boundary);
      if (!covers) continue;
      uint64_t in_range = 0;
      for (const RandomizedWave::Sample& s : level) {
        if (s.ts > boundary) in_range += s.count;
      }
      est = static_cast<double>(in_range) * static_cast<double>(1ULL << l);
      break;
    }
    ests.push_back(est);
  }
  auto mid = ests.begin() + ests.size() / 2;
  std::nth_element(ests.begin(), mid, ests.end());
  return *mid;
}

}  // namespace ecm::oracle

#endif  // ECM_TESTS_TEST_ORACLES_H_
