#include "bench/baselines/hybrid_histogram.h"

#include <algorithm>
#include <cassert>

namespace ecm {

HybridHistogram::HybridHistogram(const Config& config)
    : window_len_(config.window_len), exact_len_(config.exact_len) {
  assert(config.window_len > 0 && config.num_subwindows > 0);
  assert(config.exact_len < config.window_len);
  uint32_t slots = config.num_subwindows + 1;
  // Round the span UP so the (B+1)-slot ring always covers the full
  // window: with a floored span and (window - exact_len) % B != 0 the
  // ring wrapped inside the window and silently overwrote in-window
  // tail mass.
  span_ = std::max<uint64_t>(
      1, (window_len_ - exact_len_ + config.num_subwindows - 1) /
             config.num_subwindows);
  slots_.assign(slots, 0);
  slot_epochs_.assign(slots, ~0ULL);
}

void HybridHistogram::AddToTail(Timestamp ts, uint64_t count) {
  size_t idx = SlotIndex(ts);
  Timestamp epoch = SlotEpoch(ts);
  if (slot_epochs_[idx] != epoch) {
    slots_[idx] = 0;
    slot_epochs_[idx] = epoch;
  }
  slots_[idx] += count;
}

void HybridHistogram::DemoteAged(Timestamp now) {
  // Exact entries older than exact_len demote into the equi-width tail.
  Timestamp exact_start = WindowStart(now, exact_len_);
  if (exact_start > demoted_through_) demoted_through_ = exact_start;
  while (!exact_.empty() && exact_.front().ts <= exact_start) {
    AddToTail(exact_.front().ts, exact_.front().count);
    exact_.pop_front();
  }
}

void HybridHistogram::Add(Timestamp ts, uint64_t count) {
  assert(ts >= last_ts_ && "timestamps must be non-decreasing");
  last_ts_ = ts;
  lifetime_ += count;
  if (!exact_.empty() && exact_.back().ts == ts) {
    exact_.back().count += count;
  } else {
    exact_.push_back(Run{ts, count});
  }
  // Hot path stays O(1) amortized: only demote aged exact runs. Expired
  // tail slots need no eager zeroing — Estimate() filters them by epoch
  // and AddToTail() resets a slot when its ring epoch advances — so the
  // full ring scan is reserved for the explicit Expire() entry point.
  DemoteAged(ts);
}

void HybridHistogram::Expire(Timestamp now) {
  DemoteAged(now);
  // Tail slots fully outside the window are dropped.
  Timestamp wstart = WindowStart(now, window_len_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slot_epochs_[i] != ~0ULL && slot_epochs_[i] + span_ <= wstart) {
      slots_[i] = 0;
      slot_epochs_[i] = ~0ULL;
    }
  }
}

double HybridHistogram::Estimate(Timestamp now, uint64_t range) const {
  if (range > window_len_) range = window_len_;
  Timestamp boundary = WindowStart(now, range);

  // Exact region: count runs inside (boundary, now].
  double sum = 0.0;
  auto it = std::partition_point(
      exact_.begin(), exact_.end(),
      [boundary](const Run& r) { return r.ts <= boundary; });
  for (; it != exact_.end(); ++it) {
    if (it->ts <= now) sum += static_cast<double>(it->count);
  }
  // Tail region: equi-width slots with boundary interpolation. Demotion
  // never puts anything newer than the demoted_through_ watermark into
  // the ring, so a slot's content occupies [slot_start, min(slot_end-1,
  // watermark)] — interpolating over that covered range (not the nominal
  // span) keeps tail mass out of the exact region, making ranges within
  // the exact buffer exact by construction instead of by epoch-alignment
  // luck.
  auto slot_mass = [&](size_t i) -> double {
    Timestamp lo = slot_epochs_[i];
    Timestamp covered = std::min<Timestamp>(lo + span_ - 1, demoted_through_);
    Timestamp hi = std::min<Timestamp>(covered, now);
    if (hi < lo || hi <= boundary) return 0.0;
    if (lo > boundary && hi == covered) return static_cast<double>(slots_[i]);
    // Boundary slot: assume uniform arrivals over the covered range (the
    // baseline's unavoidable, guarantee-free assumption).
    Timestamp from =
        (lo == 0) ? boundary : std::max<Timestamp>(boundary, lo - 1);
    return static_cast<double>(slots_[i]) * static_cast<double>(hi - from) /
           static_cast<double>(covered - lo + 1);
  };
  // A stored epoch e intersects the range exactly when SlotEpoch(boundary)
  // <= e <= SlotEpoch(now); walk those epochs directly when there are
  // fewer of them than ring slots (short trailing ranges), else scan the
  // ring once (the tail span is sized to window - exact_len, so a
  // full-window walk could otherwise revisit slots).
  Timestamp first_epoch = SlotEpoch(boundary);
  Timestamp last_epoch = SlotEpoch(now);
  if ((last_epoch - first_epoch) / span_ <
      static_cast<uint64_t>(slots_.size())) {
    for (Timestamp e = first_epoch;; e += span_) {
      size_t i = SlotIndex(e);
      if (slot_epochs_[i] == e && slots_[i] != 0) sum += slot_mass(i);
      if (e == last_epoch) break;
    }
  } else {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slot_epochs_[i] == ~0ULL || slots_[i] == 0) continue;
      if (slot_epochs_[i] > now || slot_epochs_[i] + span_ <= boundary) {
        continue;
      }
      sum += slot_mass(i);
    }
  }
  return sum;
}

size_t HybridHistogram::MemoryBytes() const {
  return sizeof(*this) + exact_.size() * sizeof(Run) +
         slots_.size() * (sizeof(uint64_t) + sizeof(Timestamp));
}

}  // namespace ecm
