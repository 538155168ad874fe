// Continuous-query engine over a single high-dimensional stream: the
// "local site" runtime of the paper's monitoring scenarios (§1, §6).
//
// A StreamEngine owns one synopsis of its stream — an ECM-sketch, or, when
// a key domain is declared, a dyadic stack whose level 0 is that sketch
// (§6.1) — and evaluates registered standing queries as the stream flows:
//
//  * point-threshold   — fire when a key's sliding-window count crosses T
//                        (the §1 DDoS trigger, evaluated per arrival of
//                        the watched key, cheap: one point query);
//  * self-join-threshold — fire when windowed F₂ crosses T (checked every
//                        `evaluate_every` arrivals; F₂ costs O(w·d));
//  * heavy-hitters     — report keys above φ·‖a_r‖₁ every `period` ticks
//                        (needs the dyadic stack).
//
// Alerts are edge-triggered: a callback fires when the estimate's side of
// the threshold changes, not on every arrival while it stays crossed.
// All callbacks run synchronously inside Ingest() — keep them light.

#ifndef ECM_ENGINE_CONTINUOUS_H_
#define ECM_ENGINE_CONTINUOUS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/dyadic.h"
#include "src/core/ecm_sketch.h"
#include "src/engine/keyed_store.h"
#include "src/stream/event.h"

namespace ecm {

/// Identifier of a registered standing query.
using QueryId = uint64_t;

/// Alert delivered by threshold queries.
struct ThresholdAlert {
  QueryId query = 0;
  Timestamp ts = 0;      ///< stream time of the triggering arrival
  double estimate = 0.0; ///< the estimate that crossed
  bool above = false;    ///< new side of the threshold
};

/// Periodic heavy-hitter report.
struct HeavyHitterReport {
  QueryId query = 0;
  Timestamp ts = 0;
  double window_l1 = 0.0;
  std::vector<HeavyHitter> hitters;
};

/// Single-stream continuous-query runtime.
class StreamEngine {
 public:
  struct Options {
    EcmConfig sketch;        ///< configuration of the underlying sketch
    int domain_bits = 0;     ///< > 0 enables the dyadic stack (heavy hitters);
                             ///< its level 0 is then the engine's sketch
    uint64_t evaluate_every = 64;  ///< cadence of self-join checks (arrivals)
  };

  explicit StreamEngine(const Options& options);

  /// Registers a point-threshold query. `callback` fires on each crossing
  /// (both directions).
  QueryId WatchPoint(uint64_t key, uint64_t range, double threshold,
                     std::function<void(const ThresholdAlert&)> callback);

  /// Registers a self-join (F₂) threshold query.
  QueryId WatchSelfJoin(uint64_t range, double threshold,
                        std::function<void(const ThresholdAlert&)> callback);

  /// Registers a periodic heavy-hitter report (every `period` ticks of
  /// stream time). Requires domain_bits > 0 at construction.
  Result<QueryId> WatchHeavyHitters(
      double phi_ratio, uint64_t range, uint64_t period,
      std::function<void(const HeavyHitterReport&)> callback);

  /// Removes a standing query. Returns false if the id is unknown.
  bool Unwatch(QueryId id);

  /// Feeds one arrival and evaluates the affected standing queries.
  void Ingest(uint64_t key, Timestamp ts, uint64_t count = 1);

  /// Batched ingest of a site-local, timestamp-ordered event slice —
  /// the form ParallelIngest workers and trace replays feed.
  void IngestBatch(const StreamEvent* events, size_t n);

  /// Attaches a keyed counter store guarded by this engine's sketch:
  /// every ingested arrival is co-fed to the store after the sketch, so
  /// hot keys get exact sliding-window counters while the sketch covers
  /// the rest of the universe. Replaces any previously enabled store.
  KeyedCounterStore* EnableKeyedStore(const KeyedStoreConfig& config);

  const KeyedCounterStore* keyed_store() const { return keyed_store_.get(); }
  KeyedCounterStore* keyed_store() { return keyed_store_.get(); }

  /// Ad-hoc queries pass through to the sketch.
  double PointQuery(uint64_t key, uint64_t range) const {
    return sketch().PointQuery(key, range);
  }

  /// Point query preferring the exact per-key counter when the key is
  /// resident in the keyed store, falling back to the sketch otherwise.
  /// `exact_out` (optional) reports which path answered.
  double PointQueryExact(uint64_t key, uint64_t range,
                         bool* exact_out = nullptr) const {
    if (keyed_store_) {
      double est = 0.0;
      if (keyed_store_->TryPointQuery(key, keyed_store_->clock(), range,
                                      &est)) {
        if (exact_out) *exact_out = true;
        return est;
      }
    }
    if (exact_out) *exact_out = false;
    return sketch().PointQuery(key, range);
  }
  double SelfJoin(uint64_t range) const { return sketch().SelfJoin(range); }

  /// The stream's sketch: the dyadic stack's level 0 when there is one.
  const EcmSketch<ExponentialHistogram>& sketch() const {
    return dyadic_ ? dyadic_->level(0) : *sketch_;
  }
  /// The dyadic stack, or null when domain_bits == 0.
  const DyadicEcm<ExponentialHistogram>* dyadic() const {
    return dyadic_.get();
  }

  /// Counters for tests/telemetry.
  struct Stats {
    uint64_t arrivals = 0;
    uint64_t point_evaluations = 0;
    uint64_t selfjoin_evaluations = 0;
    uint64_t heavy_hitter_reports = 0;
    uint64_t alerts = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Total memory of the engine's synopses.
  size_t MemoryBytes() const;

 private:
  struct PointWatch {
    QueryId id;
    uint64_t key;
    uint64_t range;
    double threshold;
    bool above = false;
    std::function<void(const ThresholdAlert&)> callback;
  };
  struct SelfJoinWatch {
    QueryId id;
    uint64_t range;
    double threshold;
    bool above = false;
    std::function<void(const ThresholdAlert&)> callback;
  };
  struct HitterWatch {
    QueryId id;
    double phi_ratio;
    uint64_t range;
    uint64_t period;
    Timestamp next_due = 0;
    std::function<void(const HeavyHitterReport&)> callback;
  };

  void EvaluatePoint(PointWatch* watch, Timestamp ts);
  void EvaluateSelfJoins(Timestamp ts);
  void EvaluateHitters(Timestamp ts);

  Options options_;
  // The engine's one synopsis: the dyadic stack when a key domain is
  // declared, otherwise the sketch alone; exactly one of the two is set.
  // Held by pointer so the sketch address the keyed store borrows
  // survives a move of the engine.
  std::unique_ptr<DyadicEcm<ExponentialHistogram>> dyadic_;
  std::unique_ptr<EcmSketch<ExponentialHistogram>> sketch_;
  // Optional exact per-key counter store, admission-guarded by sketch()
  // (null until EnableKeyedStore).
  std::unique_ptr<KeyedCounterStore> keyed_store_;
  std::vector<PointWatch> point_watches_;
  std::vector<SelfJoinWatch> selfjoin_watches_;
  std::vector<HitterWatch> hitter_watches_;
  QueryId next_id_ = 1;
  uint64_t since_eval_ = 0;
  Stats stats_;
};

}  // namespace ecm

#endif  // ECM_ENGINE_CONTINUOUS_H_
