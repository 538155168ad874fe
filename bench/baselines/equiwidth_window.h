// Equi-width sliding sub-window counter — the related-work baseline the
// paper contrasts with (Hung & Ting 2008; Dimitropoulos et al. 2008;
// hybrid histograms of Qiao et al. 2003): a ring of B equal-span
// sub-window counters instead of an exponential histogram.
//
// The structure is simple and fast — a weighted arrival is one ring-slot
// addition — but, as the paper argues in §2, provides NO meaningful error
// guarantee: a query whose boundary falls inside a sub-window can be off
// by that sub-window's entire content, and for small ranges the error is
// unbounded relative to the answer. The ablation bench
// (bench_ablation_equiwidth) measures exactly this failure mode against
// ECM-EH at matched memory.
//
// EquiWidthWindow satisfies SlidingWindowCounter, so the baseline sketch
// is EcmSketch<EquiWidthWindow>.

#ifndef ECM_BENCH_BASELINES_EQUIWIDTH_WINDOW_H_
#define ECM_BENCH_BASELINES_EQUIWIDTH_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/window/window_spec.h"

namespace ecm {

/// Ring of B equal-span counters covering the trailing window.
class EquiWidthWindow {
 public:
  struct Config {
    uint64_t window_len = 100;  ///< N: window length
    uint32_t num_subwindows = 8;  ///< B: ring size
  };

  EquiWidthWindow() : EquiWidthWindow(Config{}) {}
  explicit EquiWidthWindow(const Config& config);

  /// Registers `count` arrivals at `ts` (non-decreasing, >= 1). Weighted
  /// arrivals are native: one slot addition regardless of `count`.
  void Add(Timestamp ts, uint64_t count = 1);

  /// Estimate of arrivals in (now-range, now]: full sub-windows inside the
  /// range plus a linear fraction of the boundary sub-window.
  double Estimate(Timestamp now, uint64_t range) const;

  /// Zeroes sub-windows that slid out of the window.
  void Expire(Timestamp now);

  uint64_t lifetime_count() const { return lifetime_; }
  uint64_t window_len() const { return window_len_; }
  Timestamp last_timestamp() const { return last_ts_; }
  /// Ticks covered per ring slot (error-bound hook for tests: a boundary
  /// inside a slot is resolved by uniform interpolation over this span).
  uint64_t span() const { return span_; }
  size_t MemoryBytes() const {
    return sizeof(*this) + slots_.size() * sizeof(uint64_t);
  }

 private:
  /// Index of the ring slot containing timestamp ts.
  size_t SlotIndex(Timestamp ts) const {
    return static_cast<size_t>((ts / span_) % slots_.size());
  }
  /// First timestamp of the slot epoch containing ts.
  Timestamp SlotEpoch(Timestamp ts) const { return (ts / span_) * span_; }

  uint64_t window_len_;
  uint64_t span_;  // ticks covered per slot
  std::vector<uint64_t> slots_;
  std::vector<Timestamp> slot_epochs_;  // epoch each slot currently holds
  uint64_t lifetime_ = 0;
  Timestamp last_ts_ = 0;
};

}  // namespace ecm

#endif  // ECM_BENCH_BASELINES_EQUIWIDTH_WINDOW_H_
