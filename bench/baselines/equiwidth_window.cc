#include "bench/baselines/equiwidth_window.h"

#include <algorithm>
#include <cassert>

namespace ecm {

EquiWidthWindow::EquiWidthWindow(const Config& config)
    : window_len_(config.window_len) {
  assert(config.window_len > 0 && config.num_subwindows > 0);
  // B+1 slots so a full window of B spans is always representable even
  // when the current slot is partially filled. The span rounds UP so
  // that (B+1)·span >= window + span always holds: with a floored span
  // and window % B != 0 the ring could wrap inside the window and
  // silently overwrite in-window mass (e.g. window=100, B=60 gave
  // span=1 and only 61 covered ticks).
  uint32_t slots = config.num_subwindows + 1;
  span_ = std::max<uint64_t>(
      1, (window_len_ + config.num_subwindows - 1) / config.num_subwindows);
  slots_.assign(slots, 0);
  slot_epochs_.assign(slots, ~0ULL);
}

void EquiWidthWindow::Add(Timestamp ts, uint64_t count) {
  assert(ts >= last_ts_ && "timestamps must be non-decreasing");
  last_ts_ = ts;
  lifetime_ += count;
  size_t idx = SlotIndex(ts);
  Timestamp epoch = SlotEpoch(ts);
  if (slot_epochs_[idx] != epoch) {
    slots_[idx] = 0;  // ring wrapped: this slot's old epoch is history
    slot_epochs_[idx] = epoch;
  }
  slots_[idx] += count;
}

void EquiWidthWindow::Expire(Timestamp now) {
  Timestamp wstart = WindowStart(now, window_len_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slot_epochs_[i] != ~0ULL && slot_epochs_[i] + span_ <= wstart) {
      slots_[i] = 0;
      slot_epochs_[i] = ~0ULL;
    }
  }
}

double EquiWidthWindow::Estimate(Timestamp now, uint64_t range) const {
  if (range > window_len_) range = window_len_;
  Timestamp boundary = WindowStart(now, range);
  // Only slot epochs intersecting (boundary, now] can contribute, and a
  // stored epoch e intersects exactly when SlotEpoch(boundary) <= e <=
  // SlotEpoch(now) — so walk those epochs directly (at most range/span+1
  // ring probes) instead of scanning the whole ring.
  double sum = 0.0;
  Timestamp last_epoch = SlotEpoch(now);
  for (Timestamp e = SlotEpoch(boundary);; e += span_) {
    size_t i = SlotIndex(e);
    if (slot_epochs_[i] == e && slots_[i] != 0) {
      Timestamp slot_end = e + span_;  // exclusive
      if (e > boundary && slot_end <= now + 1) {
        sum += static_cast<double>(slots_[i]);
      } else {
        // Boundary slot: assume uniform arrivals within the slot (the
        // baseline's unavoidable, guarantee-free assumption).
        Timestamp lo = std::max(e, boundary + 1);
        Timestamp hi = std::min<Timestamp>(slot_end, now + 1);
        double frac = hi > lo ? static_cast<double>(hi - lo) /
                                    static_cast<double>(span_)
                              : 0.0;
        sum += static_cast<double>(slots_[i]) * frac;
      }
    }
    if (e == last_epoch) break;
  }
  return sum;
}

}  // namespace ecm
