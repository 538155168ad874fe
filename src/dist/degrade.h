// Graceful degradation for the distributed runtime: honest answers from
// a coordinator whose sites are down, flapping, or lagging.
//
// The fault-free protocol answers from one fresh snapshot per site,
// without merging: it sums the snapshots' cell estimates per row and
// takes the min over rows (EcmSketch::SumPointQueryAt), so a point query
// carries Theorem 1's guarantee eps_q * ||a||_1 with eps_q = eps_cm +
// eps_sw + eps_cm * eps_sw. During an outage the coordinator only has
// *last-known-good* snapshots for some sites — silently answering from
// them reports the fault-free bound for an answer that is missing every
// arrival since each stale snapshot's clock. DegradingMergeView makes
// that gap explicit instead: it retains the best (max event-clock)
// snapshot per site, tracks per-site staleness against the query clock,
// and answers according to a DegradationPolicy:
//
//   kFailClosed          refuse (kUnavailable) unless every site is
//                        fresh — correctness over availability;
//   kServeStaleWithBound answer from everything retained, *inflating*
//                        the reported error bound by the mass the stale
//                        sites may have absorbed since their snapshots;
//   kExcludeSite         answer from fresh sites only, widening the
//                        bound by the excluded sites' possible mass.
//
// The inflation is an honest worst case under one declared workload
// assumption, DegradationOptions::max_rate_per_site: no site ingests
// more than `rate` arrivals per timestamp tick (weighted mass counts
// with weight). With integer timestamps, the arrivals a site may have
// seen in (t_snap, now] that also land in the query window of length
// `range` are then at most rate * min(now - t_snap, range), and an
// excluded site contributes at most rate * range. The L1 the sketch term
// scales is itself an estimate, upper-bounded by L1_est / (1 - eps_q).
// Every term the bound reports is computable from retained state only.
// The query clock is pinned under the view's lock to max(now, every
// retained snapshot's clock), so no snapshot is read ahead of it.
//
// The view is transport-agnostic on purpose: feed it decoded sketches
// (Coordinator/SketchReceiver output) or serialized images straight off
// the wire, and feed health transitions from CoordinatorServer's
// site_status(). See examples/chaos_runtime.cpp for the full loop.

#ifndef ECM_DIST_DEGRADE_H_
#define ECM_DIST_DEGRADE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/serialize.h"
#include "src/dist/transport.h"
#include "src/util/result.h"

namespace ecm {

/// What a coordinator does with queries while sites are stale or gone.
enum class DegradationPolicy : uint8_t {
  kFailClosed = 0,           ///< refuse unless every site is fresh
  kServeStaleWithBound = 1,  ///< serve everything retained, inflate bound
  kExcludeSite = 2,          ///< serve fresh sites only, inflate bound
};

struct DegradationOptions {
  DegradationPolicy policy = DegradationPolicy::kServeStaleWithBound;
  /// A snapshot is stale when the query clock has moved more than this
  /// many ticks past its event clock. 0 means snapshots never age out
  /// (only missing snapshots / SetHealth(false) degrade a site).
  uint64_t stale_after = 0;
  /// Declared workload ceiling: no site ingests more than this much
  /// mass per timestamp tick. The staleness slack in the bound is
  /// rate * (ticks possibly unseen); with rate 0 the bound only covers
  /// sketch error, which is honest only for genuinely idle streams.
  double max_rate_per_site = 0.0;
};

/// Degradation bookkeeping for one site, as of a query clock.
struct SiteSnapshotMeta {
  NodeId node = 0;
  bool has_snapshot = false;
  bool healthy = true;       ///< last SetHealth() report
  bool fresh = false;        ///< healthy + snapshot inside stale_after
  Timestamp snapshot_clock = 0;
};

/// A degraded (or clean) answer with its honest absolute error bound.
struct DegradedEstimate {
  double estimate = 0.0;
  /// estimate ± error_bound covers the true count under the declared
  /// rate ceiling: sketch_error + staleness_slack.
  double error_bound = 0.0;
  double sketch_error = 0.0;     ///< eps_q * L1 upper bound term
  double staleness_slack = 0.0;  ///< unseen-mass term (stale + excluded)
  bool degraded = false;  ///< any site stale, excluded, or missing
  int sites_included = 0;
  int sites_stale = 0;     ///< included but not fresh
  int sites_excluded = 0;  ///< no snapshot, or excluded by policy
  Timestamp now = 0;       ///< query clock the answer is relative to
};

/// Last-known-good view over per-site sketch snapshots.
/// Thread-safe: transport reader threads Update() while a query thread
/// calls PointQuery(). Snapshots only move forward in event time — a
/// delayed, reordered older image can never overwrite a newer one.
template <SlidingWindowCounter Counter>
class DegradingMergeView {
 public:
  explicit DegradingMergeView(const DegradationOptions& opts = {})
      : opts_(opts) {}

  /// Retains `sketch` as `node`'s last known good state if it is at
  /// least as advanced (event clock) as what is already held.
  void Update(NodeId node, const EcmSketch<Counter>& sketch) {
    std::lock_guard<std::mutex> lk(mu_);
    Entry& e = FindOrCreateLocked(node);
    if (e.sketch.has_value() && sketch.Now() < e.sketch->Now()) return;
    e.sketch.emplace(sketch);
  }

  /// Decodes a serialized full snapshot off the wire and retains it.
  Status UpdateSerialized(NodeId node, const uint8_t* data, size_t size) {
    auto sketch = DeserializeSketch<Counter>(data, size);
    if (!sketch.ok()) return sketch.status();
    Update(node, *sketch);
    return Status::OK();
  }

  /// Health report from liveness tracking (CoordinatorServer sweeper).
  /// An unhealthy site is never fresh, whatever its snapshot age.
  void SetHealth(NodeId node, bool up) {
    std::lock_guard<std::mutex> lk(mu_);
    FindOrCreateLocked(node).healthy = up;
  }

  /// The most advanced event clock across retained snapshots — the
  /// natural query clock when the coordinator has no stream of its own.
  Timestamp LatestClock() const {
    std::lock_guard<std::mutex> lk(mu_);
    return LatestClockLocked();
  }

  /// Point query over the trailing `range` ticks, answered per the
  /// configured policy with an honest inflated bound. The answer is at
  /// max(`now`, LatestClock()), reported in DegradedEstimate::now.
  Result<DegradedEstimate> PointQuery(uint64_t key, uint64_t range,
                                      Timestamp now) const {
    std::lock_guard<std::mutex> lk(mu_);
    if (entries_.empty()) {
      return Status::Unavailable("DegradingMergeView: no sites registered");
    }
    now = std::max(now, LatestClockLocked());
    DegradedEstimate out;
    out.now = now;
    std::vector<const EcmSketch<Counter>*> included;
    for (const Entry& e : entries_) {
      // A site with nothing retained is never fresh: kFailClosed refuses,
      // the serving policies put its whole window mass into the slack.
      const bool fresh = IsFreshLocked(e, now);
      if (!fresh && opts_.policy == DegradationPolicy::kFailClosed) {
        return Status::Unavailable(
            "DegradingMergeView: site " + std::to_string(e.node) +
            (e.sketch.has_value() ? " is stale" : " has no snapshot"));
      }
      if (!e.sketch.has_value() ||
          (!fresh && opts_.policy == DegradationPolicy::kExcludeSite)) {
        ++out.sites_excluded;
        continue;
      }
      if (!fresh) ++out.sites_stale;
      included.push_back(&*e.sketch);
    }
    if (included.empty()) {
      return Status::Unavailable(
          "DegradingMergeView: no fresh site snapshots to serve from");
    }
    out.sites_included = static_cast<int>(included.size());
    out.degraded = out.sites_stale > 0 || out.sites_excluded > 0;

    using Sketch = EcmSketch<Counter>;
    ECM_ASSIGN_OR_RETURN(out.estimate,
                         Sketch::SumPointQueryAt(included, key, range, now));
    auto l1 = Sketch::SumL1At(included, range, now);
    if (!l1.ok()) return l1.status();

    // Sketch term: Theorem 1's budget times the upper-bounded L1.
    const EcmConfig& cfg = included.front()->config();
    const double eps_q =
        cfg.epsilon_cm + cfg.epsilon_sw + cfg.epsilon_cm * cfg.epsilon_sw;
    out.sketch_error = eps_q * (eps_q < 1.0 ? *l1 / (1.0 - eps_q) : *l1);

    // Staleness slack: every included site may have absorbed mass after
    // its snapshot (even "fresh" ones are behind `now`), and every
    // excluded/missing site may have put its whole window mass on this
    // key. All of it is bounded by the declared per-tick rate ceiling.
    double slack = 0.0;
    for (const Sketch* s : included) {
      slack += opts_.max_rate_per_site *
               static_cast<double>(std::min<uint64_t>(now - s->Now(), range));
    }
    slack += opts_.max_rate_per_site * static_cast<double>(range) *
             static_cast<double>(out.sites_excluded);
    out.staleness_slack = slack;
    out.error_bound = out.sketch_error + out.staleness_slack;
    return out;
  }

  /// Per-site degradation bookkeeping as of query clock `now`.
  std::vector<SiteSnapshotMeta> site_meta(Timestamp now) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<SiteSnapshotMeta> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      SiteSnapshotMeta m;
      m.node = e.node;
      m.has_snapshot = e.sketch.has_value();
      m.healthy = e.healthy;
      m.fresh = IsFreshLocked(e, now);
      m.snapshot_clock = e.sketch.has_value() ? e.sketch->Now() : 0;
      out.push_back(m);
    }
    return out;
  }

 private:
  struct Entry {
    NodeId node = 0;
    bool healthy = true;
    std::optional<EcmSketch<Counter>> sketch;
  };

  Entry& FindOrCreateLocked(NodeId node) {
    for (Entry& e : entries_) {
      if (e.node == node) return e;
    }
    entries_.push_back(Entry{});
    entries_.back().node = node;
    return entries_.back();
  }

  Timestamp LatestClockLocked() const {
    Timestamp latest = 0;
    for (const Entry& e : entries_) {
      if (e.sketch.has_value()) latest = std::max(latest, e.sketch->Now());
    }
    return latest;
  }

  bool IsFreshLocked(const Entry& e, Timestamp now) const {
    if (!e.sketch.has_value() || !e.healthy) return false;
    if (opts_.stale_after == 0) return true;
    const Timestamp clock = e.sketch->Now();
    return now <= clock || now - clock <= opts_.stale_after;
  }

  const DegradationOptions opts_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace ecm

#endif  // ECM_DIST_DEGRADE_H_
