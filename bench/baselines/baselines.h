// The counters benches and tests compare the paper's three against, made
// usable as EcmSketch<Counter>: the exact-window oracle (an ECM-sketch
// whose only error source is Count-Min collisions) and the §2
// guarantee-free baselines (equi-width sub-windows, hybrid histogram).
// None of them is part of the library; this header gives each one its
// MakeCounterConfig specialization, which must be seen before the first
// EcmSketch<Counter> of that counter is built.

#ifndef ECM_BENCH_BASELINES_BASELINES_H_
#define ECM_BENCH_BASELINES_BASELINES_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "bench/baselines/equiwidth_window.h"
#include "bench/baselines/exact_window.h"
#include "bench/baselines/hybrid_histogram.h"
#include "src/core/ecm_sketch.h"
#include "src/window/counter_traits.h"

namespace ecm {

static_assert(SlidingWindowCounter<ExactWindow>);
static_assert(SlidingWindowCounter<EquiWidthWindow>);
static_assert(SlidingWindowCounter<HybridHistogram>);
static_assert(BucketExportingCounter<ExactWindow>);

template <>
inline ExactWindow::Config MakeCounterConfig<ExactWindow>(
    const EcmConfig& cfg) {
  return ExactWindow::Config{cfg.window_len};
}

/// Equi-width baseline: spend the window-error budget on ring granularity
/// — B = ceil(1/ε_sw) sub-windows, the natural memory-matched
/// configuration against an ε_sw exponential histogram.
template <>
inline EquiWidthWindow::Config MakeCounterConfig<EquiWidthWindow>(
    const EcmConfig& cfg) {
  auto subwindows = static_cast<uint32_t>(
      std::ceil(1.0 / (cfg.epsilon_sw > 0 ? cfg.epsilon_sw : 0.1)));
  return EquiWidthWindow::Config{cfg.window_len, subwindows};
}

/// Hybrid baseline: exact resolution over the most recent 5% of the
/// window, ε_sw-granular equi-width tail — the natural memory-comparable
/// configuration against an ε_sw exponential histogram.
template <>
inline HybridHistogram::Config MakeCounterConfig<HybridHistogram>(
    const EcmConfig& cfg) {
  HybridHistogram::Config c;
  c.window_len = cfg.window_len;
  c.exact_len = std::max<uint64_t>(1, cfg.window_len / 20);
  c.num_subwindows = static_cast<uint32_t>(
      std::ceil(1.0 / (cfg.epsilon_sw > 0 ? cfg.epsilon_sw : 0.1)));
  return c;
}

/// The collision-only testing variant.
using EcmExact = EcmSketch<ExactWindow>;

}  // namespace ecm

#endif  // ECM_BENCH_BASELINES_BASELINES_H_
