#include "src/engine/continuous.h"

#include <algorithm>

namespace ecm {

StreamEngine::StreamEngine(const Options& options) : options_(options) {
  if (options_.domain_bits > 0) {
    dyadic_ = std::make_unique<DyadicEcm<ExponentialHistogram>>(
        options_.domain_bits, options_.sketch);
  } else {
    sketch_ = std::make_unique<EcmSketch<ExponentialHistogram>>(
        options_.sketch);
  }
  if (options_.evaluate_every == 0) options_.evaluate_every = 1;
}

QueryId StreamEngine::WatchPoint(
    uint64_t key, uint64_t range, double threshold,
    std::function<void(const ThresholdAlert&)> callback) {
  PointWatch w;
  w.id = next_id_++;
  w.key = key;
  w.range = range;
  w.threshold = threshold;
  w.callback = std::move(callback);
  point_watches_.push_back(std::move(w));
  return point_watches_.back().id;
}

QueryId StreamEngine::WatchSelfJoin(
    uint64_t range, double threshold,
    std::function<void(const ThresholdAlert&)> callback) {
  SelfJoinWatch w;
  w.id = next_id_++;
  w.range = range;
  w.threshold = threshold;
  w.callback = std::move(callback);
  selfjoin_watches_.push_back(std::move(w));
  return selfjoin_watches_.back().id;
}

Result<QueryId> StreamEngine::WatchHeavyHitters(
    double phi_ratio, uint64_t range, uint64_t period,
    std::function<void(const HeavyHitterReport&)> callback) {
  if (!dyadic_) {
    return Status::InvalidArgument(
        "heavy-hitter queries need domain_bits > 0 at engine construction");
  }
  if (!(phi_ratio > 0.0) || phi_ratio >= 1.0) {
    return Status::InvalidArgument("phi_ratio must be in (0, 1)");
  }
  if (period == 0) {
    return Status::InvalidArgument("period must be positive");
  }
  HitterWatch w;
  w.id = next_id_++;
  w.phi_ratio = phi_ratio;
  w.range = range;
  w.period = period;
  w.callback = std::move(callback);
  hitter_watches_.push_back(std::move(w));
  return hitter_watches_.back().id;
}

bool StreamEngine::Unwatch(QueryId id) {
  auto erase_by_id = [id](auto* watches) {
    auto it = std::find_if(watches->begin(), watches->end(),
                           [id](const auto& w) { return w.id == id; });
    if (it == watches->end()) return false;
    watches->erase(it);
    return true;
  };
  return erase_by_id(&point_watches_) || erase_by_id(&selfjoin_watches_) ||
         erase_by_id(&hitter_watches_);
}

void StreamEngine::EvaluatePoint(PointWatch* watch, Timestamp ts) {
  ++stats_.point_evaluations;
  double est = sketch().PointQuery(watch->key, watch->range);
  bool above = est >= watch->threshold;
  if (above != watch->above) {
    watch->above = above;
    ++stats_.alerts;
    if (watch->callback) {
      watch->callback(ThresholdAlert{watch->id, ts, est, above});
    }
  }
}

void StreamEngine::EvaluateSelfJoins(Timestamp ts) {
  for (auto& watch : selfjoin_watches_) {
    ++stats_.selfjoin_evaluations;
    double est = sketch().SelfJoin(watch.range);
    bool above = est >= watch.threshold;
    if (above != watch.above) {
      watch.above = above;
      ++stats_.alerts;
      if (watch.callback) {
        watch.callback(ThresholdAlert{watch.id, ts, est, above});
      }
    }
  }
}

void StreamEngine::EvaluateHitters(Timestamp ts) {
  for (auto& watch : hitter_watches_) {
    if (ts < watch.next_due) continue;
    watch.next_due = ts + watch.period;
    ++stats_.heavy_hitter_reports;
    HeavyHitterReport report;
    report.query = watch.id;
    report.ts = ts;
    report.window_l1 = dyadic_->EstimateL1(watch.range);
    report.hitters = dyadic_->HeavyHitters(watch.phi_ratio, watch.range);
    if (watch.callback) watch.callback(report);
  }
}

KeyedCounterStore* StreamEngine::EnableKeyedStore(
    const KeyedStoreConfig& config) {
  keyed_store_ = std::make_unique<KeyedCounterStore>(config, &sketch());
  return keyed_store_.get();
}

void StreamEngine::Ingest(uint64_t key, Timestamp ts, uint64_t count) {
  if (dyadic_) {
    dyadic_->Add(key, ts, count);
  } else {
    sketch_->Add(key, ts, count);
  }
  // The store sees each arrival after the sketch so its admission check
  // includes the current event (the store's documented contract).
  if (keyed_store_) keyed_store_->Add(key, ts, count);
  ++stats_.arrivals;

  // Point watches on the arriving key re-evaluate immediately (their
  // estimate only moves when the key arrives or the window slides).
  for (auto& watch : point_watches_) {
    if (watch.key == key) EvaluatePoint(&watch, ts);
  }
  if (++since_eval_ >= options_.evaluate_every) {
    since_eval_ = 0;
    // Window sliding can also *lower* point estimates: re-check all.
    for (auto& watch : point_watches_) {
      if (watch.key != key) EvaluatePoint(&watch, ts);
    }
    EvaluateSelfJoins(ts);
  }
  EvaluateHitters(ts);
}

void StreamEngine::IngestBatch(const StreamEvent* events, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Ingest(events[i].key, events[i].ts, 1);
  }
}

size_t StreamEngine::MemoryBytes() const {
  size_t bytes = sizeof(*this) +
                 (dyadic_ ? dyadic_->MemoryBytes() : sketch_->MemoryBytes());
  if (keyed_store_) bytes += keyed_store_->MemoryBytes();
  return bytes;
}

}  // namespace ecm
