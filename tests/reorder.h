// Bounded-disorder ingestion: a reorder buffer in front of a sliding-
// window synopsis.
//
// Every synopsis in this library requires non-decreasing timestamps — the
// cash-register model of the paper. Real distributed feeds (the §2
// related work on out-of-order streams: Busch & Tirthapura 2007, Cormode
// et al. 2009, Xu et al. 2008) deliver slightly shuffled arrivals due to
// network delays. Rather than redesigning the synopses for asynchrony
// (those structures give up composability or pay Θ(1/ε²) space), the
// standard engineering remedy suffices when disorder is bounded: buffer
// arrivals for `max_lateness` ticks and release them in timestamp order.
//
// Items later than the bound are either clamped forward to the release
// watermark (default — they stay in the stream, slightly displaced, which
// perturbs estimates by at most the lateness/window ratio) or dropped,
// with both counts reported.
//
// Only tests feed disordered streams, so the buffer is a header-only test
// helper rather than library code.

#ifndef ECM_TESTS_REORDER_H_
#define ECM_TESTS_REORDER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/stream/event.h"
#include "src/util/random.h"

namespace ecm {

/// Reorder buffer with a fixed lateness bound.
class ReorderBuffer {
 public:
  enum class LatePolicy : uint8_t {
    kClampForward = 0,  ///< emit with ts = watermark (keeps the count)
    kDrop = 1,          ///< discard (keeps timestamps exact)
  };

  struct Config {
    uint64_t max_lateness = 1000;  ///< disorder bound, in ticks
    LatePolicy late_policy = LatePolicy::kClampForward;
  };

  /// \param sink receives events in non-decreasing timestamp order.
  ReorderBuffer(const Config& config,
                std::function<void(const StreamEvent&)> sink)
      : config_(config), sink_(std::move(sink)) {}

  /// Accepts one possibly-out-of-order event. Events with
  /// ts <= watermark - max_lateness are handled per the late policy.
  void Push(const StreamEvent& event) {
    if (event.ts > watermark_) watermark_ = event.ts;

    Timestamp safe = watermark_ > config_.max_lateness
                         ? watermark_ - config_.max_lateness
                         : 0;
    if (event.ts < safe || event.ts < last_released_) {
      ++late_;
      if (config_.late_policy == LatePolicy::kDrop) {
        ++dropped_;
      } else {
        // Clamp forward to the release frontier: the arrival keeps its
        // count, displaced by at most its lateness.
        StreamEvent clamped = event;
        clamped.ts = std::max(safe, last_released_);
        heap_.push(clamped);
      }
    } else {
      heap_.push(event);
    }
    // Everything at or before watermark - max_lateness can no longer be
    // preceded by future arrivals: safe to release.
    Drain(safe);
  }

  /// Releases everything still buffered (end of stream).
  void Flush() { Drain(~0ULL); }

  /// Highest timestamp seen so far.
  Timestamp watermark() const { return watermark_; }

  /// Events currently buffered.
  size_t Pending() const { return heap_.size(); }

  /// Arrivals that violated the lateness bound (clamped or dropped).
  uint64_t late_events() const { return late_; }
  uint64_t dropped_events() const { return dropped_; }

  /// Memory held by the buffer.
  size_t MemoryBytes() const {
    return sizeof(*this) + heap_.size() * sizeof(StreamEvent);
  }

 private:
  struct LaterTs {
    bool operator()(const StreamEvent& a, const StreamEvent& b) const {
      return a.ts > b.ts;
    }
  };

  void Drain(Timestamp release_up_to) {
    while (!heap_.empty() && heap_.top().ts <= release_up_to) {
      StreamEvent e = heap_.top();
      heap_.pop();
      // Heap order guarantees non-decreasing release timestamps.
      last_released_ = e.ts;
      sink_(e);
    }
  }

  Config config_;
  std::function<void(const StreamEvent&)> sink_;
  std::priority_queue<StreamEvent, std::vector<StreamEvent>, LaterTs> heap_;
  Timestamp watermark_ = 0;
  Timestamp last_released_ = 0;
  uint64_t late_ = 0;
  uint64_t dropped_ = 0;
};

/// Applies bounded random displacement to an ordered event vector (each
/// event moves backward by up to `max_shift` ticks), producing the
/// disorder pattern of a delay-prone network.
inline std::vector<StreamEvent> ShuffleWithBoundedDelay(
    std::vector<StreamEvent> events, uint64_t max_shift, uint64_t seed) {
  // Model: event i is *observed* at ts + delay_i with delay_i uniform in
  // [0, max_shift]; the observation order is by delivery time, but each
  // event still carries its original timestamp — exactly what a receiver
  // behind a jittery network sees.
  Rng rng(seed);
  std::vector<std::pair<Timestamp, StreamEvent>> delivery;
  delivery.reserve(events.size());
  for (const StreamEvent& e : events) {
    Timestamp delivered = e.ts + rng.Uniform(max_shift + 1);
    delivery.emplace_back(delivered, e);
  }
  std::stable_sort(delivery.begin(), delivery.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<StreamEvent> out;
  out.reserve(events.size());
  for (const auto& [d, e] : delivery) out.push_back(e);
  return out;
}

}  // namespace ecm

#endif  // ECM_TESTS_REORDER_H_
