// Randomized wave (Gibbons & Tirthapura, SPAA 2002) — (ε, δ)-approximate
// basic counting over a sliding window, the "ECM-RW" counter variant.
//
// Each arrival is assigned an independent geometric level g (P[g >= l] =
// 2^-l); level l of the wave samples the stream with probability 2^-l by
// retaining the timestamps of arrivals with g >= l, keeping only the most
// recent c = ceil(k/ε²) per level. A query uses the finest level whose
// retained sample still spans the range boundary and scales the in-range
// sample count by 2^l. Repeating the structure in d = Θ(log 1/δ)
// independent sub-waves and taking the median of the estimates drives the
// failure probability below δ.
//
// Weighted arrivals use binomial-split batch sampling: the number of the
// c arrivals reaching level l+1 given the n_l that reached level l is
// Binomial(n_l, 1/2), so Add(ts, c) draws the whole per-level sample-count
// chain in O(log c) exact binomial splits (Rng::BinomialHalf). Each split
// popcounts ceil(n_l / 64) fair-coin words, so the chain costs ~c/32 Rng
// words in total — a 64x constant-factor cut over the c independent
// geometric draws (each ~2 words) plus the elimination of the per-arrival
// deque traffic. The chain has exactly the joint distribution of c
// per-arrival draws, and for c == 1 it consumes the very same coins, so
// unit streams are bit-identical to the per-arrival path. Retained samples
// are run-length compressed (all c samples of one arrival share a
// timestamp), which also makes the capacity ring update O(1) amortized per
// level.
//
// The point of carrying this Θ(1/ε²)-space structure alongside the
// deterministic synopses is the paper's central trade-off: randomized
// waves merge *losslessly* (§5.2) but cost one to two orders of magnitude
// more memory and network — exactly the effect benches fig4/fig5/fig6
// reproduce.

#ifndef ECM_WINDOW_RANDOMIZED_WAVE_H_
#define ECM_WINDOW_RANDOMIZED_WAVE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/random.h"
#include "src/util/result.h"
#include "src/window/window_spec.h"

namespace ecm {

/// (ε, δ)-approximate sliding-window counter based on hierarchical
/// sampling. Losslessly mergeable across streams (see window/merge.h).
class RandomizedWave {
 public:
  struct Config {
    double epsilon = 0.1;        ///< target relative error
    double delta = 0.1;          ///< failure probability
    uint64_t window_len = 100;   ///< N: window length
    uint64_t max_arrivals = 1 << 20;  ///< u(N,S): arrivals bound per window
    uint64_t seed = 0xECADECADULL;    ///< sampling seed (per-counter)
    /// Per-level capacity multiplier: c = ceil(sample_constant / ε²).
    /// The theory constant is conservative; 4 reproduces the paper's
    /// accuracy in practice and keeps the memory ratio honest.
    double sample_constant = 4.0;
  };

  RandomizedWave() : RandomizedWave(Config{}) {}
  explicit RandomizedWave(const Config& config);

  /// Registers `count` arrivals at timestamp `ts` (non-decreasing, >= 1).
  /// Costs O(count / 64 + levels) coin words per sub-wave via
  /// binomial-split batch sampling (see the file comment);
  /// distributionally identical to `count` unit calls, and bit-identical
  /// to the per-arrival path for count == 1.
  void Add(Timestamp ts, uint64_t count = 1);

  /// Median-of-sub-waves estimate of the arrivals in (now - range, now].
  /// O(log) per sub-wave: the partition point is found by binary search
  /// and the in-range sample count read off the runs' cumulative counts
  /// (Sample::cum) instead of walking the run suffix.
  double Estimate(Timestamp now, uint64_t range) const;

  /// Earliest clock value strictly after `now` at which Estimate(·, range)
  /// can differ from its value at `now`, assuming no further Adds; 0 when
  /// it can never change again. Conservative (may fire when the median
  /// happens not to move): every per-level selection and partition flip
  /// happens when the window boundary crosses a retained sample
  /// timestamp, so the next candidate is the smallest retained timestamp
  /// past the boundary across all sub-waves and levels. Drives the
  /// geometric monitors' per-counter expiry-event heap.
  Timestamp NextEstimateChangeAt(Timestamp now, uint64_t range) const;

  /// Drops sample entries that can no longer influence in-window queries.
  void Expire(Timestamp now);

  /// Exact number of arrivals ever registered.
  uint64_t lifetime_count() const { return lifetime_; }

  /// Approximate in-memory footprint in bytes.
  size_t MemoryBytes() const;

  double epsilon() const { return epsilon_; }
  double delta() const { return delta_; }
  uint64_t window_len() const { return window_len_; }
  int num_subwaves() const { return static_cast<int>(subwaves_.size()); }
  int num_levels() const { return num_levels_; }
  size_t level_capacity() const { return level_capacity_; }
  Timestamp last_timestamp() const { return last_ts_; }

  /// A run of retained samples: `count` arrivals all stamped `ts`.
  /// `cum` is the run's inclusive cumulative sample count within its
  /// level's retained history: for adjacent runs a, b the invariant
  /// b.cum == a.cum + b.count holds, so the in-range suffix sum of any
  /// query is back().cum - predecessor.cum in O(1). Front evictions and
  /// anchor shrinks leave cum untouched (only the implied start offset
  /// front.cum - front.count moves), so maintenance is O(1) per push.
  struct Sample {
    Timestamp ts;
    uint64_t count;
    uint64_t cum = 0;
  };

  /// One independent sampling structure. Public so the §5.2 merge
  /// (window/merge.h) can unite per-level samples across waves.
  struct SubWave {
    /// levels[l] = run-length-compressed timestamps of retained arrivals
    /// with geometric level >= l, oldest first; total sample count per
    /// level is capped at the wave's level capacity.
    std::vector<std::deque<Sample>> levels;
    /// sizes[l] = total retained samples at level l (Σ run counts).
    std::vector<uint64_t> sizes;
    /// True once level l has dropped a sample (capacity or expiry): the
    /// sample no longer reaches arbitrarily far left.
    std::vector<bool> truncated;
  };

  const std::vector<SubWave>& subwaves() const { return subwaves_; }
  std::vector<SubWave>& mutable_subwaves() { return subwaves_; }

  /// Sets the lifetime counter (merge helper).
  void set_lifetime_count(uint64_t n) { lifetime_ = n; }
  void set_last_timestamp(Timestamp ts) { last_ts_ = ts; }

  /// Estimate from a single sub-wave (exposed for tests).
  double EstimateSubWave(int idx, Timestamp now, uint64_t range) const;

  /// Appends the exact wire encoding to `w`: the shape, the clock and
  /// every retained sample. RNG state is not on the wire.
  void SerializeTo(ByteWriter* w) const;

  /// Decodes a wave previously written by SerializeTo into this one, in
  /// place: the header's shape replaces the held one and each level is
  /// cleared and refilled. The held wave keeps its own RNG state (its
  /// per-cell seed in a sketch). A failed decode leaves a partial state
  /// to re-decode or discard.
  Status DecodeFrom(ByteReader* r);

 private:
  // Appends `n` samples stamped `ts` to `level` of `sw`, merging into the
  // newest run and evicting oldest samples past the level capacity.
  void PushSamples(SubWave* sw, int level, Timestamp ts, uint64_t n);

  double epsilon_;
  double delta_;
  uint64_t window_len_;
  size_t level_capacity_;
  int num_levels_;

  std::vector<SubWave> subwaves_;
  Rng rng_;
  uint64_t lifetime_ = 0;
  Timestamp last_ts_ = 0;
};

}  // namespace ecm

#endif  // ECM_WINDOW_RANDOMIZED_WAVE_H_
