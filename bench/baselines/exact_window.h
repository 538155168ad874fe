// Exact sliding-window counter: the O(n)-space ground truth against which
// every approximate synopsis in this library is measured, and a drop-in
// Counter for EcmSketch<ExactWindow> in tests (an ECM-sketch whose only
// error source is Count-Min collisions).

#ifndef ECM_BENCH_BASELINES_EXACT_WINDOW_H_
#define ECM_BENCH_BASELINES_EXACT_WINDOW_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/window/exponential_histogram.h"  // BucketView
#include "src/window/window_spec.h"

namespace ecm {

/// Stores every in-window arrival (run-length compressed by timestamp) and
/// answers range counts exactly.
class ExactWindow {
 public:
  struct Config {
    uint64_t window_len = 100;  ///< N: window length (ticks or arrivals)
  };

  ExactWindow() : ExactWindow(Config{}) {}
  explicit ExactWindow(const Config& config) : window_len_(config.window_len) {}

  /// Registers `count` arrivals at timestamp `ts` (non-decreasing, >= 1).
  void Add(Timestamp ts, uint64_t count = 1);

  /// Exact number of arrivals with timestamp in (now - range, now].
  double Estimate(Timestamp now, uint64_t range) const;

  /// Drops entries outside the window ending at `now`.
  void Expire(Timestamp now);

  /// Exact number of arrivals ever registered.
  uint64_t lifetime_count() const { return lifetime_; }

  /// In-memory footprint in bytes (linear in distinct in-window stamps).
  size_t MemoryBytes() const;

  /// One zero-width bucket per retained timestamp; lets the exact counter
  /// participate in the generic bucket-replay merge (tests only).
  std::vector<BucketView> Buckets() const;

  uint64_t window_len() const { return window_len_; }
  Timestamp last_timestamp() const { return last_ts_; }

  /// Appends the exact wire encoding to `w`.
  void SerializeTo(ByteWriter* w) const;

  /// Decodes a window previously written by SerializeTo into this one,
  /// in place. A failed decode leaves a partial state to re-decode or
  /// discard.
  Status DecodeFrom(ByteReader* r);

 private:
  struct Run {
    Timestamp ts;
    uint64_t count;
  };

  uint64_t window_len_;
  std::deque<Run> runs_;  // oldest first
  uint64_t lifetime_ = 0;
  Timestamp last_ts_ = 0;
};

}  // namespace ecm

#endif  // ECM_BENCH_BASELINES_EXACT_WINDOW_H_
