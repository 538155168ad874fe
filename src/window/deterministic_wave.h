// Deterministic wave (Gibbons & Tirthapura, SPAA 2002) for ε-approximate
// basic counting over a sliding window — the "ECM-DW" counter variant.
//
// A wave keeps L levels; level j records the arrival ranks divisible by
// 2^j (together with their timestamps), retaining the most recent
// c = ceil(1/ε)+2 entries per level. A query for range r locates, at the
// finest level that still covers the range boundary, the last recorded rank
// at or before the boundary; the count of newer arrivals then has an
// uncertainty of at most 2^j - 1, which the level structure keeps below
// ε times the answer.
//
// Space matches the exponential histogram asymptotically
// (O(log²(g(N,S))/ε) bits); the wave's advantage (paper Table 2) is O(1)
// worst-case update time. Unlike the exponential histogram, the number of
// levels must be provisioned from an upper bound u(N,S) on the arrivals in
// a window (paper §4.2.2); overestimating u only costs log-many levels.
//
// NOTE: we implement the textbook variant whose update is O(1) amortized
// (a rank divisible by 2^j touches j+1 levels); Gibbons & Tirthapura
// de-amortize with staggered work, which changes no observable behaviour.

#ifndef ECM_WINDOW_DETERMINISTIC_WAVE_H_
#define ECM_WINDOW_DETERMINISTIC_WAVE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/window/exponential_histogram.h"  // BucketView
#include "src/window/window_spec.h"

namespace ecm {

/// ε-approximate sliding-window counter with O(1) amortized updates and
/// levels provisioned from an a-priori arrival bound.
class DeterministicWave {
 public:
  struct Config {
    double epsilon = 0.1;        ///< max relative error of estimates
    uint64_t window_len = 100;   ///< N: window length (ticks or arrivals)
    uint64_t max_arrivals = 1 << 20;  ///< u(N,S): arrivals bound per window
  };

  DeterministicWave() : DeterministicWave(Config{}) {}
  explicit DeterministicWave(const Config& config);

  /// Registers `count` arrivals at timestamp `ts` (non-decreasing, >= 1).
  void Add(Timestamp ts, uint64_t count = 1);

  /// Estimated number of arrivals with timestamp in (now - range, now].
  double Estimate(Timestamp now, uint64_t range) const;

  /// Drops entries that can no longer influence any in-window query.
  void Expire(Timestamp now);

  /// Exact number of arrivals ever registered.
  uint64_t lifetime_count() const { return lifetime_; }

  /// Approximate in-memory footprint in bytes.
  size_t MemoryBytes() const;

  /// Reconstructs the stream suffix as buckets (oldest first): between two
  /// consecutive recorded ranks q_i < q_{i+1} exactly q_{i+1}-q_i arrivals
  /// happened in (ts_i, ts_{i+1}]. Feeds the §5.1-style merge, which the
  /// paper notes "trivially extends" to deterministic waves.
  std::vector<BucketView> Buckets() const;

  double epsilon() const { return epsilon_; }
  uint64_t window_len() const { return window_len_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  Timestamp last_timestamp() const { return last_ts_; }

  /// Appends the exact wire encoding to `w`.
  void SerializeTo(ByteWriter* w) const;

  /// Decodes a wave previously written by SerializeTo into this one, in
  /// place: the header's shape replaces the held one and each level is
  /// cleared and refilled. A failed decode leaves a partial state to
  /// re-decode or discard.
  Status DecodeFrom(ByteReader* r);

 private:
  struct Entry {
    uint64_t rank;  // arrival index (1-based), divisible by 2^level
    Timestamp ts;
  };

  void AddOne(Timestamp ts);
  // Closed-form equivalent of `count` AddOne calls at one timestamp.
  void AddBatch(Timestamp ts, uint64_t count);

  double epsilon_;
  uint64_t window_len_;
  size_t level_capacity_;  // c = ceil(1/eps) + 2

  std::vector<std::deque<Entry>> levels_;
  // anchors_[j]: most recently evicted entry of level j (rank 0 at ts 0
  // initially); the left neighbour of levels_[j].front().
  std::vector<Entry> anchors_;
  uint64_t lifetime_ = 0;
  Timestamp last_ts_ = 0;
};

}  // namespace ecm

#endif  // ECM_WINDOW_DETERMINISTIC_WAVE_H_
