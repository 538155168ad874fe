// The exponential-histogram arithmetic shared by both bucket layouts:
// the per-level capacity rule and the closed-form weighted cascade.
//
// ExponentialHistogram keeps one ring per level (the sketch cells);
// SlabEhPool keeps one self-describing span per key inside a slab arena
// (the keyed store). Each layout wins on the synopsis that uses it, so
// both stay — but they run this one arithmetic, which is what makes
// their bucket states bit-identical by construction.

#ifndef ECM_WINDOW_EH_ARITHMETIC_H_
#define ECM_WINDOW_EH_ARITHMETIC_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/window/window_spec.h"

namespace ecm {

/// Buckets a level may hold before its two oldest merge: k + 2 with
/// k = ceil(1/epsilon). Keeping up to k + 1 buckets per level retains at
/// least k below the top level, which yields invariant 1 of the paper
/// for every bucket of size >= 2: C_j <= 2*eps*(1 + newer sizes). k is
/// clamped before the float->int cast, so tiny epsilons from hostile
/// bytes cannot overflow into UB, and ring arithmetic stays in 32 bits.
inline size_t EhLevelCapacity(double epsilon) {
  double k = std::ceil(1.0 / epsilon);
  if (!(k >= 1.0)) k = 1.0;
  if (k > 1e9) k = 1e9;
  return static_cast<size_t>(k) + 2;
}

/// Inserts `count` arrivals at `ts` into a histogram whose levels are
/// reached through `levels`, reproducing exactly the bucket state that
/// `count` unit inserts (each cascading a full level's two oldest
/// buckets into the next level) would leave behind, at
/// O(log(count) + capacity) bucket operations. Returns the change in the
/// number of buckets held.
///
/// `Levels` exposes, per level (0 = size-1 buckets), its buckets' end
/// timestamps oldest first:
///   uint64_t Count(size_t i)           buckets held; creates level i
///   Timestamp End(size_t i, uint64_t p) end of the p-th oldest bucket
///   void PopFront(size_t i, uint64_t n) drops the n oldest buckets
///   void PushBack(size_t i, Timestamp e) appends a newest bucket
template <typename Levels>
int64_t EhCascadeAdd(Levels& levels, uint64_t capacity, Timestamp ts,
                     uint64_t count) {
  // The incoming buckets of the current level are `expl` — explicit end
  // timestamps emitted by merges of pre-existing buckets one level below,
  // oldest first — followed by a run of `ts_run` buckets all ending at
  // `ts`. Reused thread-local scratch keeps the path allocation-free
  // after warm-up (sizes are bounded by the capacity).
  static thread_local std::vector<Timestamp> expl, next_expl;
  expl.clear();
  uint64_t ts_run = count;
  int64_t bucket_delta = 0;
  for (size_t i = 0; ts_run + expl.size() > 0; ++i) {
    const uint64_t c = capacity;
    const uint64_t m = levels.Count(i);
    const uint64_t k = expl.size() + ts_run;
    // Merges the unit cascade performs here: the first fires once the
    // level fills to c, then one more per two further appends.
    const uint64_t merges = (k >= c - m) ? 1 + (k - (c - m)) / 2 : 0;
    bucket_delta +=
        static_cast<int64_t>(k) - 2 * static_cast<int64_t>(merges);
    if (merges == 0) {
      for (Timestamp e : expl) levels.PushBack(i, e);
      for (uint64_t j = 0; j < ts_run; ++j) levels.PushBack(i, ts);
      break;
    }
    // Merge j (1-based) coalesces elements 2j-1 and 2j of the oldest-first
    // sequence [existing buckets, expl, ts-run] and emits a bucket ending
    // at element 2j into the next level; once 2j lands in the ts-run every
    // remaining merge emits `ts`.
    next_expl.clear();
    uint64_t next_ts_run = 0;
    for (uint64_t j = 1; j <= merges; ++j) {
      const uint64_t p = 2 * j;
      if (p <= m) {
        next_expl.push_back(levels.End(i, p - 1));
      } else if (p <= m + expl.size()) {
        next_expl.push_back(expl[p - m - 1]);
      } else {
        next_ts_run = merges - j + 1;
        break;
      }
    }
    // Consume the merged prefix: drop min(2*merges, m) existing buckets,
    // then skip the first (2*merges - m) incoming ones (which the unit
    // cascade would have appended and immediately merged away), and append
    // what survives.
    const uint64_t consumed_existing = std::min(2 * merges, m);
    levels.PopFront(i, consumed_existing);
    const uint64_t dropped_in = 2 * merges - consumed_existing;
    const uint64_t dropped_expl = std::min<uint64_t>(dropped_in, expl.size());
    for (size_t x = dropped_expl; x < expl.size(); ++x) {
      levels.PushBack(i, expl[x]);
    }
    for (uint64_t x = dropped_in - dropped_expl; x < ts_run; ++x) {
      levels.PushBack(i, ts);
    }
    expl.swap(next_expl);
    ts_run = next_ts_run;
  }
  return bucket_delta;
}

}  // namespace ecm

#endif  // ECM_WINDOW_EH_ARITHMETIC_H_
