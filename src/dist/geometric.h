// Geometric-method threshold monitoring over distributed ECM-sketches
// (§6.2, after Sharfman et al.): sites monitor a nonlinear function f of
// the *average* statistics vector without continuous synchronization. At
// each sync the coordinator collects every site's statistics vector and
// broadcasts the global average e; between syncs each site i bounds the
// global average inside the ball centered at e + δ_i/2 with radius
// ‖δ_i‖/2 (δ_i = its local drift since the sync). While every site's ball
// stays strictly on one side of the surface f = T, the global value is
// certified on that side; a ball touching the surface is a local
// violation and forces a sync.
//
// Two monitors are provided, both counter-generic over the runtime's
// Site<Counter> and charging syncs through its Transport:
//  * GeometricSelfJoinMonitorT — f is the sliding-window self-join size F₂
//    (statistics vector = the site's full w×d counter-estimate grid);
//  * GeometricPointMonitorT — f is one key's windowed count (statistics
//    vector = the d per-row estimates of that key), the paper's §1
//    distributed-trigger scenario.
//
// The sync/cadence state machine is identical for every choice of f, so
// it lives once in GeometricMonitorBase (CRTP): ingest + drift
// maintenance + sphere-test cadence on the local path, collect + average
// + re-arm + wire charging on the sync path, and the stats aggregation.
// A derived monitor supplies only the geometry of its f:
//    UpdateDrift(st, key)   O(d) incremental drift maintenance
//    RefreshVector(st)      full statistics-vector rebuild
//    SphereViolation(st)    the local ball-vs-surface test
//    InstallAverage()       f on the fresh global average + per-site
//                           re-arm of f-specific ball state
//
// Drift tracking (the steady-state cost of the local sphere test):
//  * kIncremental (default) — each arrival touches exactly one counter
//    per row, so the site updates only those d statistics-vector entries
//    (located via the sketch's PointQueryRowsAt hook) and maintains
//    ‖δ_i‖² and the per-row ball-center norms by difference. The sphere
//    test is then O(d) per check instead of the O(w·d) full rebuild.
//    Window expiry is handled exactly by a per-counter expiry-event heap:
//    every tracked counter reports the next clock value at which its
//    estimate can change (Counter::NextEstimateChangeAt), the site keeps
//    those events in a min-heap, and each arrival drains the events that
//    came due before the sphere test — so the tracked vector equals the
//    rebuilt one at every check, with no staleness window. The monitors
//    therefore accept only counters with that hook (ExpiryTrackedCounter:
//    EH and RW).
//  * kRebuild — the legacy reference: every check re-materializes the
//    full statistics vector and recomputes the ball fresh. Kept for
//    differential tests (dist_runtime_test.cc verifies both modes sync
//    on exactly the same arrivals) and bench ablations.
//
// Parallel ingest: Process() is the sequential API (sync runs inline on
// the violating arrival). ParallelIngest drives the split API instead —
// LocalProcess() on the owning worker (site-local state only; returns
// true to request a sync) and GlobalSync() at the barrier with every
// worker quiescent.

#ifndef ECM_DIST_GEOMETRIC_H_
#define ECM_DIST_GEOMETRIC_H_

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/network_stats.h"
#include "src/dist/runtime.h"
#include "src/dist/transport.h"
#include "src/util/result.h"

namespace ecm {

/// Counters every geometric monitor maintains.
struct MonitorStats {
  uint64_t updates = 0;             ///< arrivals processed
  uint64_t local_checks = 0;        ///< sphere tests performed
  uint64_t local_violations = 0;    ///< tests whose ball touched f = T
  uint64_t syncs = 0;               ///< global synchronizations (incl. initial)
  uint64_t crossings_signaled = 0;  ///< below->above transitions detected
  NetworkStats network;
};

/// How a site maintains its drift δ_i between syncs (see file comment).
enum class DriftTracking : uint8_t {
  kIncremental = 0,  ///< O(d) per check: update only touched entries
  kRebuild = 1,      ///< O(w·d) per check: full rebuild (legacy reference)
};

/// Estimated global self-join size of `sites`' union stream over the
/// trailing `range`: merges the sketches order-preservingly (ε' =
/// `eps_prime_sw`) and evaluates F₂ on the result.
template <SlidingWindowCounter Counter>
Result<double> GlobalSelfJoin(const std::vector<EcmSketch<Counter>>& sites,
                              uint64_t range, double eps_prime_sw,
                              uint64_t seed = 0) {
  std::vector<const EcmSketch<Counter>*> ptrs;
  ptrs.reserve(sites.size());
  for (const auto& s : sites) ptrs.push_back(&s);
  auto merged = EcmSketch<Counter>::Merge(ptrs, eps_prime_sw, seed);
  if (!merged.ok()) return merged.status();
  return merged->SelfJoin(range);
}

/// Knobs shared by every geometric monitor (the self-join monitor's
/// Config is exactly this; the point monitor's adds the watched key).
struct GeometricMonitorConfig {
  double threshold = 0.0;    ///< alarm when the global f >= threshold
  uint64_t check_every = 1;  ///< sphere-test cadence, in per-site updates
  DriftTracking drift = DriftTracking::kIncremental;
};

/// Counters that can report the next clock value at which their estimate
/// can change with no further arrivals (EH, RW). The geometric monitors
/// track incremental drift exactly through the per-counter expiry-event
/// heap, so they require this hook.
template <typename C>
concept ExpiryTrackedCounter =
    SlidingWindowCounter<C> &&
    requires(const C& c, Timestamp now, uint64_t range) {
      { c.NextEstimateChangeAt(now, range) } -> std::same_as<Timestamp>;
    };

namespace geom_internal {

/// Per-site state every monitor keeps; f-specific monitors may extend it
/// with extra ball bookkeeping (the self-join monitor's per-row norms).
template <SlidingWindowCounter Counter>
struct SiteStateBase {
  using ExpiryEvent = std::pair<Timestamp, uint32_t>;  // (when, cell)

  SiteStateBase(NodeId id, const EcmConfig& cfg, size_t dim)
      : node(id, cfg), v_sync(dim, 0.0), v_cur(dim, 0.0), scheduled(dim, 0) {}
  Site<Counter> node;
  std::vector<double> v_sync;  ///< statistics vector at the last sync
  std::vector<double> v_cur;   ///< tracked current statistics vector
  double radius_sq = 0.0;      ///< ‖δ‖²
  uint64_t updates = 0;        ///< arrivals (stats)
  uint64_t cadence_ticks = 0;  ///< arrivals since the initial sync
  uint64_t checks = 0;
  uint64_t violations = 0;
  /// Min-heap of pending estimate-change events (lazy deletion: an entry
  /// is live iff it matches `scheduled` for its cell). Unused in kRebuild
  /// mode.
  std::priority_queue<ExpiryEvent, std::vector<ExpiryEvent>,
                      std::greater<ExpiryEvent>>
      expiry_heap;
  /// Earliest heap entry per cell; 0 = none pending.
  std::vector<Timestamp> scheduled;
};

template <SlidingWindowCounter Counter>
struct SelfJoinSiteState : SiteStateBase<Counter> {
  SelfJoinSiteState(NodeId id, const EcmConfig& cfg, size_t dim, int depth)
      : SiteStateBase<Counter>(id, cfg, dim),
        row_sq(static_cast<size_t>(depth), 0.0) {}
  std::vector<double> row_sq;  ///< per-row ‖e + δ/2‖² (ball-center norms)
};

}  // namespace geom_internal

/// CRTP base: the f-independent sync/cadence scaffolding (see the file
/// comment for the four hooks a derived monitor implements).
template <typename Derived, ExpiryTrackedCounter Counter, typename SiteState>
class GeometricMonitorBase {
 public:
  /// Routes one arrival to `site` and runs the local sphere test on its
  /// cadence; a violation synchronizes inline. Returns true iff this
  /// arrival caused a global sync.
  bool Process(int site, uint64_t key, Timestamp ts, uint64_t count = 1) {
    const bool violation = LocalProcess(site, key, ts, count);
    if (violation) GlobalSync();
    return violation;
  }

  /// Site-local half of Process (safe on the ParallelIngest worker that
  /// owns `site`): ingest, drift maintenance, sphere test. Returns true
  /// iff a global sync is required.
  bool LocalProcess(int site, uint64_t key, Timestamp ts, uint64_t count = 1) {
    SiteState& st = sites_[static_cast<size_t>(site)];
    st.node.Ingest(key, ts, count);
    ++st.updates;
    if (!synced_once_) return true;  // initial sync still outstanding
    if (config_.drift == DriftTracking::kIncremental) {
      // Replay every estimate-change event the clock has passed before
      // folding in this arrival, so untouched entries are exact too.
      DrainExpiryEvents(&st);
      derived().UpdateDrift(&st, key);
    }
    const uint64_t cadence = std::max<uint64_t>(config_.check_every, 1);
    if (++st.cadence_ticks % cadence != 0) return false;
    ++st.checks;
    if (config_.drift == DriftTracking::kRebuild) derived().RefreshVector(&st);
    if (!derived().SphereViolation(st)) return false;
    ++st.violations;
    return true;
  }

  /// Coordinator half: collects every site's statistics vector, installs
  /// the new global average and re-arms all drift state. Requires every
  /// worker quiescent (ParallelIngest's barrier, or the sequential path).
  void GlobalSync() {
    const size_t n = sites_.size();
    std::fill(e_avg_.begin(), e_avg_.end(), 0.0);
    for (SiteState& st : sites_) {
      derived().RefreshVector(&st);
      st.v_sync = st.v_cur;
      for (size_t k = 0; k < dim_; ++k) e_avg_[k] += st.v_sync[k];
    }
    for (double& v : e_avg_) v /= static_cast<double>(n);

    // δ = 0 at every site after a sync; the derived hook evaluates f on
    // the fresh average and re-arms its f-specific ball state.
    const bool was_above = above_;
    estimate_ = derived().InstallAverage();
    above_ = estimate_ >= config_.threshold;
    if (!was_above && above_) ++stats_.crossings_signaled;
    ++stats_.syncs;
    synced_once_ = true;
    for (SiteState& st : sites_) st.radius_sq = 0.0;
    if (config_.drift == DriftTracking::kIncremental) {
      for (SiteState& st : sites_) RebuildExpirySchedule(&st);
    }

    // Vectors up, the average back down — the sync's wire cost.
    const size_t bytes = dim_ * sizeof(double);
    for (const SiteState& st : sites_) {
      transport_->Send(st.node.id(), kCoordinatorNode,
                       reinterpret_cast<const uint8_t*>(st.v_sync.data()),
                       bytes);
    }
    for (const SiteState& st : sites_) {
      transport_->Send(kCoordinatorNode, st.node.id(),
                       reinterpret_cast<const uint8_t*>(e_avg_.data()), bytes);
    }
    stats_.network.messages += 2 * n;
    stats_.network.bytes += 2ull * n * bytes;
  }

  /// Side of the threshold established by the most recent sync.
  bool AboveThreshold() const { return above_; }

  /// Global estimate of f at the most recent sync.
  double GlobalEstimate() const { return estimate_; }

  /// Aggregated monitor counters (per-site tallies summed on demand, so
  /// parallel workers never contend on shared counters).
  MonitorStats stats() const {
    MonitorStats s = stats_;
    for (const SiteState& st : sites_) {
      s.updates += st.updates;
      s.local_checks += st.checks;
      s.local_violations += st.violations;
    }
    return s;
  }

  const EcmSketch<Counter>& site_sketch(int site) const {
    return sites_[static_cast<size_t>(site)].node.sketch();
  }

  Transport& transport() { return *transport_; }

 protected:
  GeometricMonitorBase(const EcmConfig& sketch_config,
                       const GeometricMonitorConfig& config,
                       Transport* transport, size_t dim)
      : sketch_config_(sketch_config),
        config_(config),
        transport_(transport),
        dim_(dim),
        e_avg_(dim, 0.0) {
    if (!transport_) {
      owned_transport_ = std::make_unique<LoopbackTransport>();
      transport_ = owned_transport_.get();
    }
  }

  ~GeometricMonitorBase() = default;

  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }

  // --- per-counter expiry-event heap (kIncremental) ----------------------
  //
  // Every cell of the tracked statistics vector is backed by one counter;
  // its estimate moves either when an arrival touches it (UpdateDrift
  // re-evaluates those cells directly) or when the window boundary slides
  // past retained content. For the latter, each cell keeps at most one
  // live heap entry at the counter's self-reported next change time;
  // DrainExpiryEvents replays the due entries before every sphere test, so
  // the incremental vector is exact — no periodic staleness refresh.

  /// Registers cell `cell`'s next estimate-change event. `when` == 0 means
  /// the estimate can never change again without an arrival. A later event
  /// than the one already pending is dropped: firing early is a harmless
  /// re-evaluate-and-reschedule, and the pending entry stays the earliest.
  void ScheduleCell(SiteState* st, uint32_t cell, Timestamp when) {
    if (when == 0) return;
    Timestamp& slot = st->scheduled[cell];
    if (slot != 0 && slot <= when) return;
    slot = when;
    st->expiry_heap.emplace(when, cell);
  }

  /// Replays every scheduled estimate-change event at or before the
  /// site's clock; each live event re-evaluates its cell and reschedules.
  void DrainExpiryEvents(SiteState* st) {
    const Timestamp now = st->node.sketch().Now();
    auto& heap = st->expiry_heap;
    while (!heap.empty() && heap.top().first <= now) {
      const auto [when, cell] = heap.top();
      heap.pop();
      if (st->scheduled[cell] != when) continue;  // superseded entry
      st->scheduled[cell] = 0;
      derived().ReevaluateCell(st, cell);
    }
  }

  /// Re-seeds the full schedule from scratch (after a sync refresh, when
  /// every cell was just re-evaluated exactly).
  void RebuildExpirySchedule(SiteState* st) {
    st->expiry_heap = {};
    std::fill(st->scheduled.begin(), st->scheduled.end(), 0);
    const Timestamp now = st->node.sketch().Now();
    for (size_t k = 0; k < dim_; ++k) {
      ScheduleCell(st, static_cast<uint32_t>(k),
                   derived()
                       .CellCounter(*st, static_cast<uint32_t>(k))
                       .NextEstimateChangeAt(now, sketch_config_.window_len));
    }
  }

  EcmConfig sketch_config_;
  GeometricMonitorConfig config_;
  Transport* transport_;
  std::unique_ptr<Transport> owned_transport_;
  size_t dim_;
  std::vector<SiteState> sites_;
  std::vector<double> e_avg_;  ///< global average at last sync
  double estimate_ = 0.0;
  bool above_ = false;
  bool synced_once_ = false;
  MonitorStats stats_;  ///< sync-side counters (updated under quiescence)
};

/// Threshold monitor for the global sliding-window self-join size F₂.
template <ExpiryTrackedCounter Counter>
class GeometricSelfJoinMonitorT
    : public GeometricMonitorBase<GeometricSelfJoinMonitorT<Counter>, Counter,
                                  geom_internal::SelfJoinSiteState<Counter>> {
  using SiteState = geom_internal::SelfJoinSiteState<Counter>;
  using Base = GeometricMonitorBase<GeometricSelfJoinMonitorT, Counter,
                                    SiteState>;
  friend Base;

 public:
  using Config = GeometricMonitorConfig;

  GeometricSelfJoinMonitorT(int num_sites, const EcmConfig& sketch_config,
                            const Config& config,
                            Transport* transport = nullptr)
      : Base(sketch_config, config, transport,
             static_cast<size_t>(sketch_config.width) *
                 sketch_config.depth) {
    this->sites_.reserve(static_cast<size_t>(num_sites));
    for (int i = 0; i < num_sites; ++i) {
      this->sites_.emplace_back(i, sketch_config, this->dim_,
                                sketch_config.depth);
    }
  }

 private:
  /// O(d) incremental maintenance: the arrival of `key` touched exactly
  /// one counter per row; re-evaluate those d entries and update ‖δ‖²
  /// and the per-row center norms by difference.
  void UpdateDrift(SiteState* st, uint64_t key) {
    const EcmSketch<Counter>& sk = st->node.sketch();
    const Timestamp now = sk.Now();
    double ests[kMaxSketchDepth];
    uint32_t cols[kMaxSketchDepth];
    sk.PointQueryRowsAt(key, this->sketch_config_.window_len, now, ests,
                        cols);
    const uint32_t width = this->sketch_config_.width;
    for (int j = 0; j < this->sketch_config_.depth; ++j) {
      const size_t k = static_cast<size_t>(j) * width + cols[j];
      // The arrival changed this counter's content, so its pending
      // expiry event may be stale — reschedule even if the estimate
      // value happens to be unchanged right now.
      this->ScheduleCell(st, static_cast<uint32_t>(k),
                         sk.CounterAt(j, cols[j]).NextEstimateChangeAt(
                             now, this->sketch_config_.window_len));
      const double new_v = ests[j];
      const double old_v = st->v_cur[k];
      if (new_v == old_v) continue;
      const double old_d = old_v - st->v_sync[k];
      const double new_d = new_v - st->v_sync[k];
      st->radius_sq += new_d * new_d - old_d * old_d;
      const double old_c = this->e_avg_[k] + 0.5 * old_d;
      const double new_c = this->e_avg_[k] + 0.5 * new_d;
      st->row_sq[static_cast<size_t>(j)] += new_c * new_c - old_c * old_c;
      st->v_cur[k] = new_v;
    }
  }

  /// The counter backing statistics-vector cell `k` (row-major grid).
  const Counter& CellCounter(const SiteState& st, uint32_t cell) const {
    const uint32_t width = this->sketch_config_.width;
    return st.node.sketch().CounterAt(static_cast<int>(cell / width),
                                      cell % width);
  }

  /// Expiry-event replay for one cell: window expiry moved (or may have
  /// moved) the cell's estimate with no arrival touching it. Same
  /// difference updates as UpdateDrift, then reschedule.
  void ReevaluateCell(SiteState* st, uint32_t cell) {
    const EcmSketch<Counter>& sk = st->node.sketch();
    const Timestamp now = sk.Now();
    const uint32_t width = this->sketch_config_.width;
    const int row = static_cast<int>(cell / width);
    const Counter& c = sk.CounterAt(row, cell % width);
    const uint64_t range = this->sketch_config_.window_len;
    const double new_v = c.Estimate(now, range);
    const double old_v = st->v_cur[cell];
    if (new_v != old_v) {
      const double old_d = old_v - st->v_sync[cell];
      const double new_d = new_v - st->v_sync[cell];
      st->radius_sq += new_d * new_d - old_d * old_d;
      const double old_c = this->e_avg_[cell] + 0.5 * old_d;
      const double new_c = this->e_avg_[cell] + 0.5 * new_d;
      st->row_sq[static_cast<size_t>(row)] += new_c * new_c - old_c * old_c;
      st->v_cur[cell] = new_v;
    }
    this->ScheduleCell(st, cell, c.NextEstimateChangeAt(now, range));
  }

  /// Full O(w·d) re-materialization of the site's statistics vector and
  /// exact recomputation of the ball quantities — the rebuild reference
  /// and the sync collection path.
  void RefreshVector(SiteState* st) const {
    const EcmSketch<Counter>& sk = st->node.sketch();
    const Timestamp now = sk.Now();
    const uint32_t width = this->sketch_config_.width;
    for (int row = 0; row < this->sketch_config_.depth; ++row) {
      sk.EstimateRowAt(row, this->sketch_config_.window_len, now,
                       &st->v_cur[static_cast<size_t>(row) * width]);
    }
    double radius_sq = 0.0;
    for (size_t k = 0; k < this->dim_; ++k) {
      const double drift = st->v_cur[k] - st->v_sync[k];
      radius_sq += drift * drift;
    }
    st->radius_sq = radius_sq;
    for (int row = 0; row < this->sketch_config_.depth; ++row) {
      double norm_sq = 0.0;
      for (uint32_t col = 0; col < width; ++col) {
        const size_t k = static_cast<size_t>(row) * width + col;
        const double c =
            this->e_avg_[k] + 0.5 * (st->v_cur[k] - st->v_sync[k]);
        norm_sq += c * c;
      }
      st->row_sq[static_cast<size_t>(row)] = norm_sq;
    }
  }

  /// O(d) sphere test from the maintained ball quantities: f over the
  /// ball is bounded row by row by (‖c_row‖ ± r)².
  bool SphereViolation(const SiteState& st) const {
    const double n = static_cast<double>(this->sites_.size());
    const double threshold_avg = this->config_.threshold / (n * n);
    const double radius = 0.5 * std::sqrt(std::max(st.radius_sq, 0.0));
    double bound = std::numeric_limits<double>::infinity();
    for (int row = 0; row < this->sketch_config_.depth; ++row) {
      const double norm =
          std::sqrt(std::max(st.row_sq[static_cast<size_t>(row)], 0.0));
      const double extreme =
          this->above_ ? std::max(norm - radius, 0.0) : norm + radius;
      bound = std::min(bound, extreme * extreme);
    }
    return this->above_ ? bound < threshold_avg : bound >= threshold_avg;
  }

  /// After a sync every ball center collapses onto e_avg, so the per-row
  /// center norms are shared across sites — and f on the average vector
  /// is their row-wise minimum, scaled by n².
  double InstallAverage() {
    const uint32_t width = this->sketch_config_.width;
    std::vector<double> base_row_sq(
        static_cast<size_t>(this->sketch_config_.depth));
    double f_avg = std::numeric_limits<double>::infinity();
    for (int row = 0; row < this->sketch_config_.depth; ++row) {
      double norm_sq = 0.0;
      for (uint32_t col = 0; col < width; ++col) {
        const double v = this->e_avg_[static_cast<size_t>(row) * width + col];
        norm_sq += v * v;
      }
      base_row_sq[static_cast<size_t>(row)] = norm_sq;
      f_avg = std::min(f_avg, norm_sq);
    }
    for (SiteState& st : this->sites_) st.row_sq = base_row_sq;
    const double n = static_cast<double>(this->sites_.size());
    return n * n * f_avg;
  }
};

/// Threshold monitor for one key's global sliding-window count — the
/// distributed-trigger ("DDoS victim") scenario. Syncs ship only the d
/// per-row estimates of the watched key, so they cost 2·n·d doubles each.
template <ExpiryTrackedCounter Counter>
class GeometricPointMonitorT
    : public GeometricMonitorBase<GeometricPointMonitorT<Counter>, Counter,
                                  geom_internal::SiteStateBase<Counter>> {
  using SiteState = geom_internal::SiteStateBase<Counter>;
  using Base =
      GeometricMonitorBase<GeometricPointMonitorT, Counter, SiteState>;
  friend Base;

 public:
  struct Config : GeometricMonitorConfig {
    uint64_t key = 0;  ///< the watched key
  };

  GeometricPointMonitorT(int num_sites, const EcmConfig& sketch_config,
                         const Config& config, Transport* transport = nullptr)
      : Base(sketch_config, config, transport,
             static_cast<size_t>(sketch_config.depth)),
        key_(config.key) {
    this->sites_.reserve(static_cast<size_t>(num_sites));
    for (int i = 0; i < num_sites; ++i) {
      this->sites_.emplace_back(i, sketch_config, this->dim_);
    }
    // All sites share the hash seed, so the watched key's row buckets are
    // site-independent.
    std::fill(watched_cols_, watched_cols_ + kMaxSketchDepth, 0u);
    if (!this->sites_.empty()) {
      this->sites_[0].node.sketch().RowBuckets(key_, watched_cols_);
    }
  }

 private:
  /// The watched key's row-j entry moves only when an arrival collides
  /// with it in row j; compare the arrival's buckets against the watched
  /// buckets and re-evaluate just the collided rows.
  void UpdateDrift(SiteState* st, uint64_t key) {
    const EcmSketch<Counter>& sk = st->node.sketch();
    uint32_t cols[kMaxSketchDepth];
    sk.RowBuckets(key, cols);
    const Timestamp now = sk.Now();
    for (int j = 0; j < this->sketch_config_.depth; ++j) {
      if (cols[j] != watched_cols_[j]) continue;
      const Counter& c = sk.CounterAt(j, watched_cols_[j]);
      this->ScheduleCell(
          st, static_cast<uint32_t>(j),
          c.NextEstimateChangeAt(now, this->sketch_config_.window_len));
      const double new_v = c.Estimate(now, this->sketch_config_.window_len);
      const size_t k = static_cast<size_t>(j);
      const double old_v = st->v_cur[k];
      if (new_v == old_v) continue;
      const double old_d = old_v - st->v_sync[k];
      const double new_d = new_v - st->v_sync[k];
      st->radius_sq += new_d * new_d - old_d * old_d;
      st->v_cur[k] = new_v;
    }
  }

  /// Cell j of the watched key's statistics vector = row j's counter at
  /// the key's bucket.
  const Counter& CellCounter(const SiteState& st, uint32_t cell) const {
    return st.node.sketch().CounterAt(static_cast<int>(cell),
                                      watched_cols_[cell]);
  }

  /// Expiry-event replay for row `cell` (see the self-join monitor).
  void ReevaluateCell(SiteState* st, uint32_t cell) {
    const EcmSketch<Counter>& sk = st->node.sketch();
    const Timestamp now = sk.Now();
    const Counter& c =
        sk.CounterAt(static_cast<int>(cell), watched_cols_[cell]);
    const uint64_t range = this->sketch_config_.window_len;
    const double new_v = c.Estimate(now, range);
    const double old_v = st->v_cur[cell];
    if (new_v != old_v) {
      const double old_d = old_v - st->v_sync[cell];
      const double new_d = new_v - st->v_sync[cell];
      st->radius_sq += new_d * new_d - old_d * old_d;
      st->v_cur[cell] = new_v;
    }
    this->ScheduleCell(st, cell, c.NextEstimateChangeAt(now, range));
  }

  void RefreshVector(SiteState* st) const {
    const EcmSketch<Counter>& sk = st->node.sketch();
    const Timestamp now = sk.Now();
    sk.PointQueryRowsAt(key_, this->sketch_config_.window_len, now,
                        st->v_cur.data());
    double radius_sq = 0.0;
    for (size_t k = 0; k < this->dim_; ++k) {
      const double drift = st->v_cur[k] - st->v_sync[k];
      radius_sq += drift * drift;
    }
    st->radius_sq = radius_sq;
  }

  /// f = min_j is 1-Lipschitz: over the ball it stays within ±r of
  /// min_j c_j, computed fresh from the d tracked entries (O(d)).
  bool SphereViolation(const SiteState& st) const {
    const double n = static_cast<double>(this->sites_.size());
    const double threshold_avg = this->config_.threshold / n;
    const double radius = 0.5 * std::sqrt(std::max(st.radius_sq, 0.0));
    double min_center = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < this->dim_; ++k) {
      min_center = std::min(
          min_center,
          this->e_avg_[k] + 0.5 * (st.v_cur[k] - st.v_sync[k]));
    }
    return this->above_ ? min_center - radius < threshold_avg
                        : min_center + radius >= threshold_avg;
  }

  /// f on the average is the minimum per-row estimate, scaled by n; no
  /// extra per-site ball state to re-arm beyond the shared ‖δ‖² reset.
  double InstallAverage() {
    return static_cast<double>(this->sites_.size()) *
           *std::min_element(this->e_avg_.begin(), this->e_avg_.end());
  }

  const uint64_t key_;
  uint32_t watched_cols_[kMaxSketchDepth];
};

/// The paper's default instantiations (ECM-EH sites).
using GeometricSelfJoinMonitor =
    GeometricSelfJoinMonitorT<ExponentialHistogram>;
using GeometricPointMonitor = GeometricPointMonitorT<ExponentialHistogram>;

// Compiled once in geometric.cc for the common counter types.
extern template class GeometricSelfJoinMonitorT<ExponentialHistogram>;
extern template class GeometricSelfJoinMonitorT<RandomizedWave>;
extern template class GeometricPointMonitorT<ExponentialHistogram>;
extern template class GeometricPointMonitorT<RandomizedWave>;

}  // namespace ecm

#endif  // ECM_DIST_GEOMETRIC_H_
