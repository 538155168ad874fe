// The SlidingWindowCounter concept: the contract every window synopsis
// (the paper's exponential histogram, deterministic wave and randomized
// wave) satisfies so that EcmSketch<Counter> can be instantiated with any
// of them with zero virtual-dispatch overhead on the update path. The
// guarantee-free baselines and the exact-window oracle that benches and
// tests plug into the same concept live in bench/baselines/.

#ifndef ECM_WINDOW_COUNTER_TRAITS_H_
#define ECM_WINDOW_COUNTER_TRAITS_H_

#include <concepts>
#include <cstdint>
#include <vector>

#include "src/window/deterministic_wave.h"
#include "src/window/exponential_histogram.h"
#include "src/window/randomized_wave.h"
#include "src/window/window_spec.h"

namespace ecm {

/// Requirements for a sliding-window counter usable inside an ECM-sketch.
template <typename C>
concept SlidingWindowCounter =
    requires(C c, const C& cc, Timestamp ts, uint64_t n) {
      typename C::Config;
      requires std::constructible_from<C, const typename C::Config&>;
      c.Add(ts, n);
      c.Expire(ts);
      { cc.Estimate(ts, n) } -> std::convertible_to<double>;
      { cc.MemoryBytes() } -> std::convertible_to<size_t>;
      { cc.lifetime_count() } -> std::convertible_to<uint64_t>;
      { cc.window_len() } -> std::convertible_to<uint64_t>;
      { cc.last_timestamp() } -> std::convertible_to<Timestamp>;
    };

/// Counters whose contents can be exported as an oldest-first bucket log —
/// the input format of the deterministic order-preserving merge (§5.1).
template <typename C>
concept BucketExportingCounter =
    SlidingWindowCounter<C> && requires(const C& cc) {
  { cc.Buckets() } -> std::convertible_to<std::vector<BucketView>>;
};

static_assert(SlidingWindowCounter<ExponentialHistogram>);
static_assert(SlidingWindowCounter<DeterministicWave>);
static_assert(SlidingWindowCounter<RandomizedWave>);
static_assert(BucketExportingCounter<ExponentialHistogram>);
static_assert(BucketExportingCounter<DeterministicWave>);

}  // namespace ecm

#endif  // ECM_WINDOW_COUNTER_TRAITS_H_
