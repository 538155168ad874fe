// Scheduled propagation (Chan et al.-style, §2 related work): each site
// keeps a local time-based ECM-sketch and pushes a snapshot of it to the
// coordinator when a trigger fires — on its first arrival, every `period`
// ticks, and/or whenever its windowed L1 drifts by more than a configured
// fraction since the last push. The coordinator answers a global point
// query from the freshest snapshot of every site, without merging them:
// it sums the sites' cell estimates per row and takes the min over rows
// (EcmSketch::SumPointQueryAt), at the run's clock, which keeps Theorem
// 1's single-sketch bound eps_cm + eps_sw + eps_cm * eps_sw. Its view
// lags each site by at most one trigger interval (the
// bandwidth/freshness trade-off the structure exists for): arrivals since
// a site's last push are missing, while arrivals that expired since then
// are already gone.
//
// Built on the shared runtime substrate: the sites, their channels and
// the transport belong to a runtime Coordinator, and a push is
// Coordinator::Ship — the snapshot is the sketch the site's receiver
// decoded. This class only adds the per-site trigger state, so
// ParallelIngest can drive Process() from one worker per site shard with
// no locking (a push only touches the pushing site's sketch, channel and
// trigger slot; queries read the snapshots after ingest quiesces).

#ifndef ECM_DIST_PERIODIC_H_
#define ECM_DIST_PERIODIC_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/compress.h"
#include "src/dist/network_stats.h"
#include "src/dist/runtime.h"
#include "src/dist/transport.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace ecm {

/// Coordinator plus `num_sites` local sketches with scheduled pushes.
template <SlidingWindowCounter Counter>
class PeriodicAggregatorT {
 public:
  struct Config {
    /// Push whenever this many ticks elapsed since the site's last push
    /// (0 = no periodic schedule).
    uint64_t period = 0;
    /// Push whenever the site's windowed L1 estimate moved by this
    /// fraction (relative to its value at the last push; 0 = disabled).
    double drift_fraction = 0.0;
    /// Wire compression of pushed snapshots (dist/compress.h): the
    /// images the per-site channels ship. The default kFull ships full
    /// SerializeSketch snapshots.
    CompressionOptions compression{CompressionMode::kFull};
  };

  struct Stats {
    uint64_t updates = 0;          ///< arrivals processed across all sites
    uint64_t pushes = 0;           ///< snapshots shipped to the coordinator
    uint64_t periodic_pushes = 0;  ///< pushes triggered by the period
    uint64_t drift_pushes = 0;     ///< pushes triggered by the drift budget
    NetworkStats network;
  };

  PeriodicAggregatorT(int num_sites, const EcmConfig& sketch_config,
                      const Config& config, Transport* transport = nullptr)
      : config_(config),
        coord_(num_sites, sketch_config, transport, config.compression),
        triggers_(static_cast<size_t>(num_sites)) {}

  /// Routes one arrival to `site`'s local sketch and fires any due push.
  /// Returns true iff this arrival triggered a push. Touches only
  /// `site`-local state (plus the thread-safe Transport), so one
  /// ParallelIngest worker per site shard may call it concurrently.
  bool Process(int site, uint64_t key, Timestamp ts, uint64_t count = 1) {
    Site<Counter>& node = coord_.site(site);
    const Trigger& tr = triggers_[static_cast<size_t>(site)];
    node.Ingest(key, ts, count);

    if (tr.pushes == 0) {
      Push(site, PushKind::kInitial);
      return true;
    }
    const Timestamp now = node.sketch().Now();
    if (config_.period > 0 && now - tr.last_push_ts >= config_.period) {
      Push(site, PushKind::kPeriodic);
      return true;
    }
    if (config_.drift_fraction > 0.0) {
      double l1 = node.sketch().EstimateL1(coord_.config().window_len);
      if (std::abs(l1 - tr.pushed_l1) >=
          config_.drift_fraction * std::max(tr.pushed_l1, 1.0)) {
        Push(site, PushKind::kDrift);
        return true;
      }
    }
    return false;
  }

  /// Forces every site to push its current sketch (e.g. before a query
  /// barrier). Returns the first failed ship, if any.
  Status SyncAll() {
    Status first;
    for (int i = 0; i < coord_.num_sites(); ++i) {
      Push(i, PushKind::kForced);
      const auto& got = triggers_[static_cast<size_t>(i)].received;
      if (first.ok() && !got.ok()) first = got.status();
    }
    return first;
  }

  /// Point query against the coordinator's (possibly stale) snapshots,
  /// evaluated at the run's clock (the latest live site clock, never
  /// behind any snapshot), so arrivals that left the window since a
  /// site's last push no longer count. Call it once ingest has quiesced.
  /// Fails while any site has never pushed, or when a site's last ship
  /// failed.
  Result<double> GlobalPointQuery(uint64_t key, uint64_t range) const {
    std::vector<const EcmSketch<Counter>*> snapshots;
    for (const Trigger& tr : triggers_) {
      if (!tr.received.ok()) return tr.received.status();
      snapshots.push_back(*tr.received);
    }
    return EcmSketch<Counter>::SumPointQueryAt(snapshots, key, range, clock());
  }

  /// Aggregated counters (per-site tallies summed on demand). The
  /// network volume is what the channels shipped.
  Stats stats() const {
    Stats s;
    for (int i = 0; i < coord_.num_sites(); ++i) {
      const Trigger& tr = triggers_[static_cast<size_t>(i)];
      s.updates += coord_.site(i).updates();
      s.pushes += tr.pushes;
      s.periodic_pushes += tr.periodic_pushes;
      s.drift_pushes += tr.drift_pushes;
    }
    const CompressionStats cs = coord_.compression_stats();
    s.network.messages = cs.full_images + cs.rlz_images;
    s.network.bytes = cs.wire_bytes;
    return s;
  }

  /// Aggregated sender-side accounting of the per-site channels.
  CompressionStats compression_stats() const {
    return coord_.compression_stats();
  }

  /// Largest timestamp processed so far.
  Timestamp clock() const {
    Timestamp t = 0;
    for (int i = 0; i < coord_.num_sites(); ++i) {
      t = std::max(t, coord_.site(i).sketch().Now());
    }
    return t;
  }

  /// The live local sketch of one site (always fresh, unlike the
  /// coordinator's snapshot of it).
  const EcmSketch<Counter>& site_sketch(int site) const {
    return coord_.site(site).sketch();
  }

 private:
  enum class PushKind { kInitial, kPeriodic, kDrift, kForced };

  /// Per-site push schedule and the outcome of the site's last ship.
  struct Trigger {
    Timestamp last_push_ts = 0;
    double pushed_l1 = 0.0;  ///< windowed L1 estimate at the last push
    uint64_t pushes = 0;
    uint64_t periodic_pushes = 0;
    uint64_t drift_pushes = 0;
    /// The coordinator's snapshot of the site: the receiver-decoded
    /// sketch of the last ship, or why there is none.
    Result<const EcmSketch<Counter>*> received = Status::InvalidArgument(
        "PeriodicAggregator: some site has never pushed; call SyncAll() "
        "or wait for its first arrival");
  };

  void Push(int site, PushKind kind) {
    Trigger& tr = triggers_[static_cast<size_t>(site)];
    const EcmSketch<Counter>& local = coord_.site(site).sketch();
    tr.received = coord_.Ship(site);
    tr.last_push_ts = local.Now();
    tr.pushed_l1 = local.EstimateL1(coord_.config().window_len);
    ++tr.pushes;
    if (kind == PushKind::kPeriodic) ++tr.periodic_pushes;
    if (kind == PushKind::kDrift) ++tr.drift_pushes;
  }

  Config config_;
  Coordinator<Counter> coord_;
  std::vector<Trigger> triggers_;  ///< one per site, same index
};

/// The paper's default instantiation (ECM-EH sites).
using PeriodicAggregator = PeriodicAggregatorT<ExponentialHistogram>;

// Compiled once in periodic.cc for the common counter types.
extern template class PeriodicAggregatorT<ExponentialHistogram>;
extern template class PeriodicAggregatorT<RandomizedWave>;

}  // namespace ecm

#endif  // ECM_DIST_PERIODIC_H_
