// Hybrid histogram baseline (Qiao, Agrawal, El Abbadi, SSDBM 2003 — the
// paper's §2 related work): an exact high-resolution buffer over the most
// recent arrivals backed by an equi-width histogram over the older part
// of the window.
//
// Like the pure equi-width counter (equiwidth_window.h), the hybrid
// gives NO bounded relative error once a query boundary falls into the
// equi-width region — but it is *exact* for short trailing ranges, which
// is precisely the regime its paper targets. We implement it so the
// ablation bench can reproduce the ECM paper's §2 comparison honestly:
// hybrid wins on very recent ranges, loses its guarantees on older ones,
// and cannot be merged.
//
// Satisfies SlidingWindowCounter, so the baseline sketch is
// EcmSketch<HybridHistogram>.

#ifndef ECM_BENCH_BASELINES_HYBRID_HISTOGRAM_H_
#define ECM_BENCH_BASELINES_HYBRID_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/window/window_spec.h"

namespace ecm {

/// Exact recent buffer + equi-width tail.
class HybridHistogram {
 public:
  struct Config {
    uint64_t window_len = 100;   ///< N: total window length
    uint64_t exact_len = 10;     ///< span kept at exact resolution
    uint32_t num_subwindows = 8; ///< equi-width slots over the tail
  };

  HybridHistogram() : HybridHistogram(Config{}) {}
  explicit HybridHistogram(const Config& config);

  /// Registers `count` arrivals at `ts` (non-decreasing, >= 1).
  void Add(Timestamp ts, uint64_t count = 1);

  /// Estimate of arrivals in (now-range, now]: exact for ranges within
  /// the exact buffer, linear slot interpolation beyond it.
  double Estimate(Timestamp now, uint64_t range) const;

  /// Migrates exact entries that aged past `exact_len` into the tail and
  /// drops expired tail slots.
  void Expire(Timestamp now);

  uint64_t lifetime_count() const { return lifetime_; }
  uint64_t window_len() const { return window_len_; }
  Timestamp last_timestamp() const { return last_ts_; }
  /// Span kept at exact resolution behind the newest arrival.
  uint64_t exact_len() const { return exact_len_; }
  /// Ticks covered per equi-width tail slot (error-bound hook for tests).
  uint64_t span() const { return span_; }
  size_t MemoryBytes() const;

  /// Number of runs currently in the exact buffer (test hook).
  size_t ExactRuns() const { return exact_.size(); }

 private:
  struct Run {
    Timestamp ts;
    uint64_t count;
  };

  size_t SlotIndex(Timestamp ts) const {
    return static_cast<size_t>((ts / span_) % slots_.size());
  }
  Timestamp SlotEpoch(Timestamp ts) const { return (ts / span_) * span_; }
  void AddToTail(Timestamp ts, uint64_t count);
  /// Migrates exact runs that aged past `exact_len` into the tail.
  void DemoteAged(Timestamp now);

  uint64_t window_len_;
  uint64_t exact_len_;
  uint64_t span_;
  // Demotion watermark: the highest exact-region start any Add/Expire has
  // demoted through. No tail-ring content is newer than this, which is
  // what lets Estimate() clamp tail interpolation out of the exact
  // region. Tracked explicitly because Expire(now) may run with a clock
  // ahead of last_ts_.
  Timestamp demoted_through_ = 0;
  std::deque<Run> exact_;  // oldest first, all within exact_len of last_ts_
  std::vector<uint64_t> slots_;
  std::vector<Timestamp> slot_epochs_;
  uint64_t lifetime_ = 0;
  Timestamp last_ts_ = 0;
};

}  // namespace ecm

#endif  // ECM_BENCH_BASELINES_HYBRID_HISTOGRAM_H_
