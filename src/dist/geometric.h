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
// Two monitors are provided, both counter-generic and running on the
// runtime's Coordinator<Counter> (its sites, sketch config and Transport):
//  * GeometricSelfJoinMonitorT — f is the sliding-window self-join size F₂
//    (statistics vector = the site's full w×d counter-estimate grid);
//  * GeometricPointMonitorT — f is one key's windowed count (statistics
//    vector = the d per-row estimates of that key), the paper's §1
//    distributed-trigger scenario.
//
// The sync/cadence state machine and the drift tracking are identical for
// every choice of f, so they live once in GeometricMonitorBase (CRTP).
// Each arrival touches exactly one counter per row, so a site updates only
// the statistics-vector cells backed by those counters, maintaining ‖δ_i‖²
// by difference (ReevaluateCell); the sphere test is then O(d) per check
// instead of an O(w·d) rebuild. Window expiry is handled exactly by a
// per-counter expiry-event heap: every tracked counter reports the next
// clock value at which its estimate can change
// (Counter::NextEstimateChangeAt), the site keeps those events in a
// min-heap, and each arrival drains the events that came due before the
// sphere test — so the tracked vector equals the rebuilt one at every
// check. The monitors therefore accept only counters with that hook
// (ExpiryTrackedCounter: EH and RW). tests/test_oracles.h keeps the
// full-rebuild reference the differential tests compare against.
//
// A derived monitor supplies only the geometry of its f:
//    UpdateDrift(sk, st, key)          ReevaluateCell on the arrival's cells
//    CellCounter(sk, cell)             the counter backing one cell
//    MoveCenter(st, cell, old_d, new_d) f-specific ball-center bookkeeping
//    CollectVector(sk, out)            the full statistics vector (syncs)
//    SphereViolation(st)               the local ball-vs-surface test
//    InstallAverage()                  f on the fresh global average +
//                                      per-site re-arm of the ball state
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

/// Per-site drift state every monitor keeps beside the Coordinator's
/// site; f-specific monitors may extend it with extra ball bookkeeping
/// (the self-join monitor's per-row norms).
struct SiteStateBase {
  using ExpiryEvent = std::pair<Timestamp, uint32_t>;  // (when, cell)

  explicit SiteStateBase(size_t dim)
      : v_sync(dim, 0.0), v_cur(dim, 0.0), scheduled(dim, 0) {}
  std::vector<double> v_sync;  ///< statistics vector at the last sync
  std::vector<double> v_cur;   ///< tracked current statistics vector
  double radius_sq = 0.0;      ///< ‖δ‖²
  uint64_t cadence_ticks = 0;  ///< arrivals since the initial sync
  uint64_t checks = 0;
  uint64_t violations = 0;
  /// Min-heap of pending estimate-change events (lazy deletion: an entry
  /// is live iff it matches `scheduled` for its cell).
  std::priority_queue<ExpiryEvent, std::vector<ExpiryEvent>,
                      std::greater<ExpiryEvent>>
      expiry_heap;
  /// Earliest heap entry per cell; 0 = none pending.
  std::vector<Timestamp> scheduled;
};

struct SelfJoinSiteState : SiteStateBase {
  SelfJoinSiteState(size_t dim, int depth)
      : SiteStateBase(dim), row_sq(static_cast<size_t>(depth), 0.0) {}
  std::vector<double> row_sq;  ///< per-row ‖e + δ/2‖² (ball-center norms)
};

}  // namespace geom_internal

/// CRTP base: the f-independent sync/cadence scaffolding and drift
/// tracking (see the file comment for the hooks a derived monitor
/// implements).
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
    Site<Counter>& node = coord_.site(site);
    node.Ingest(key, ts, count);
    if (!synced_once_) return true;  // initial sync still outstanding
    SiteState& st = states_[static_cast<size_t>(site)];
    // Replay every estimate-change event the clock has passed before
    // folding in this arrival, so untouched entries are exact too.
    DrainExpiryEvents(node.sketch(), &st);
    derived().UpdateDrift(node.sketch(), &st, key);
    const uint64_t cadence = std::max<uint64_t>(config_.check_every, 1);
    if (++st.cadence_ticks % cadence != 0) return false;
    ++st.checks;
    if (!derived().SphereViolation(st)) return false;
    ++st.violations;
    return true;
  }

  /// Coordinator half: collects every site's statistics vector, installs
  /// the new global average and re-arms all drift state. Requires every
  /// worker quiescent (ParallelIngest's barrier, or the sequential path).
  void GlobalSync() {
    const int n = coord_.num_sites();
    std::fill(e_avg_.begin(), e_avg_.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      SiteState& st = states_[static_cast<size_t>(i)];
      derived().CollectVector(coord_.site(i).sketch(), st.v_cur.data());
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
    for (int i = 0; i < n; ++i) {
      SiteState& st = states_[static_cast<size_t>(i)];
      st.radius_sq = 0.0;
      RebuildExpirySchedule(coord_.site(i).sketch(), &st);
    }

    // Vectors up, the average back down — the sync's wire cost. These
    // are raw statistics vectors, not sketch images, so they bypass the
    // coordinator's sketch channels.
    const size_t bytes = dim_ * sizeof(double);
    Transport& transport = coord_.transport();
    for (int i = 0; i < n; ++i) {
      transport.Send(
          coord_.site(i).id(), kCoordinatorNode,
          reinterpret_cast<const uint8_t*>(
              states_[static_cast<size_t>(i)].v_sync.data()),
          bytes);
    }
    for (int i = 0; i < n; ++i) {
      transport.Send(kCoordinatorNode, coord_.site(i).id(),
                     reinterpret_cast<const uint8_t*>(e_avg_.data()), bytes);
    }
    stats_.network.messages += 2ull * static_cast<uint64_t>(n);
    stats_.network.bytes += 2ull * static_cast<uint64_t>(n) * bytes;
  }

  /// Side of the threshold established by the most recent sync.
  bool AboveThreshold() const { return above_; }

  /// Global estimate of f at the most recent sync.
  double GlobalEstimate() const { return estimate_; }

  /// Aggregated monitor counters (per-site tallies summed on demand, so
  /// parallel workers never contend on shared counters).
  MonitorStats stats() const {
    MonitorStats s = stats_;
    for (int i = 0; i < coord_.num_sites(); ++i) {
      const SiteState& st = states_[static_cast<size_t>(i)];
      s.updates += coord_.site(i).updates();
      s.local_checks += st.checks;
      s.local_violations += st.violations;
    }
    return s;
  }

  const EcmSketch<Counter>& site_sketch(int site) const {
    return coord_.site(site).sketch();
  }

  Transport& transport() { return coord_.transport(); }

 protected:
  /// `initial` is one site's zeroed drift state; every site starts from a
  /// copy, and its vector length fixes the statistics-vector dimension.
  GeometricMonitorBase(int num_sites, const EcmConfig& sketch_config,
                       const GeometricMonitorConfig& config,
                       Transport* transport, const SiteState& initial)
      : coord_(num_sites, sketch_config, transport),
        config_(config),
        dim_(initial.v_cur.size()),
        states_(static_cast<size_t>(num_sites), initial),
        e_avg_(dim_, 0.0) {}

  ~GeometricMonitorBase() = default;

  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }

  const EcmConfig& sketch_config() const { return coord_.config(); }

  // --- drift tracking and the per-counter expiry-event heap --------------
  //
  // Every cell of the tracked statistics vector is backed by one counter;
  // its estimate moves either when an arrival touches it (UpdateDrift
  // re-evaluates those cells directly) or when the window boundary slides
  // past retained content. For the latter, each cell keeps at most one
  // live heap entry at the counter's self-reported next change time;
  // DrainExpiryEvents replays the due entries before every sphere test, so
  // the incremental vector is exact — no periodic staleness refresh.

  /// Re-reads cell `cell`'s estimate, folds the change into ‖δ‖² (and,
  /// through MoveCenter, the derived ball state) by difference, and
  /// reschedules the cell's expiry event. An arrival changes the backing
  /// counter's content, so the reschedule runs even when the estimate
  /// value happens to be unchanged right now.
  void ReevaluateCell(const EcmSketch<Counter>& sk, SiteState* st,
                      uint32_t cell) {
    const Timestamp now = sk.Now();
    const uint64_t range = sketch_config().window_len;
    const Counter& c = derived().CellCounter(sk, cell);
    const double new_v = c.Estimate(now, range);
    const double old_v = st->v_cur[cell];
    if (new_v != old_v) {
      const double old_d = old_v - st->v_sync[cell];
      const double new_d = new_v - st->v_sync[cell];
      st->radius_sq += new_d * new_d - old_d * old_d;
      derived().MoveCenter(st, cell, old_d, new_d);
      st->v_cur[cell] = new_v;
    }
    ScheduleCell(st, cell, c.NextEstimateChangeAt(now, range));
  }

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
  void DrainExpiryEvents(const EcmSketch<Counter>& sk, SiteState* st) {
    const Timestamp now = sk.Now();
    auto& heap = st->expiry_heap;
    while (!heap.empty() && heap.top().first <= now) {
      const auto [when, cell] = heap.top();
      heap.pop();
      if (st->scheduled[cell] != when) continue;  // superseded entry
      st->scheduled[cell] = 0;
      ReevaluateCell(sk, st, cell);
    }
  }

  /// Re-seeds the full schedule from scratch (after a sync refresh, when
  /// every cell was just re-evaluated exactly).
  void RebuildExpirySchedule(const EcmSketch<Counter>& sk, SiteState* st) {
    st->expiry_heap = {};
    std::fill(st->scheduled.begin(), st->scheduled.end(), 0);
    const Timestamp now = sk.Now();
    for (size_t k = 0; k < dim_; ++k) {
      const auto cell = static_cast<uint32_t>(k);
      ScheduleCell(st, cell,
                   derived().CellCounter(sk, cell).NextEstimateChangeAt(
                       now, sketch_config().window_len));
    }
  }

  Coordinator<Counter> coord_;
  GeometricMonitorConfig config_;
  size_t dim_;
  std::vector<SiteState> states_;  ///< drift state of coord_.site(i)
  std::vector<double> e_avg_;      ///< global average at last sync
  double estimate_ = 0.0;
  bool above_ = false;
  bool synced_once_ = false;
  MonitorStats stats_;  ///< sync-side counters (updated under quiescence)
};

/// Threshold monitor for the global sliding-window self-join size F₂.
template <ExpiryTrackedCounter Counter>
class GeometricSelfJoinMonitorT
    : public GeometricMonitorBase<GeometricSelfJoinMonitorT<Counter>, Counter,
                                  geom_internal::SelfJoinSiteState> {
  using SiteState = geom_internal::SelfJoinSiteState;
  using Base = GeometricMonitorBase<GeometricSelfJoinMonitorT, Counter,
                                    SiteState>;
  friend Base;

 public:
  using Config = GeometricMonitorConfig;

  GeometricSelfJoinMonitorT(int num_sites, const EcmConfig& sketch_config,
                            const Config& config,
                            Transport* transport = nullptr)
      : Base(num_sites, sketch_config, config, transport,
             SiteState(static_cast<size_t>(sketch_config.width) *
                           static_cast<size_t>(sketch_config.depth),
                       sketch_config.depth)) {}

 private:
  /// The arrival of `key` touched exactly one counter per row; re-evaluate
  /// those d cells.
  void UpdateDrift(const EcmSketch<Counter>& sk, SiteState* st,
                   uint64_t key) {
    uint32_t cols[kMaxSketchDepth];
    sk.RowBuckets(key, cols);
    const uint32_t width = this->sketch_config().width;
    for (int j = 0; j < this->sketch_config().depth; ++j) {
      this->ReevaluateCell(sk, st, static_cast<uint32_t>(j) * width + cols[j]);
    }
  }

  /// The counter backing statistics-vector cell `cell` (row-major grid).
  const Counter& CellCounter(const EcmSketch<Counter>& sk,
                             uint32_t cell) const {
    const uint32_t width = this->sketch_config().width;
    return sk.CounterAt(static_cast<int>(cell / width), cell % width);
  }

  /// Keeps the cell's row ball-center norm ‖e + δ/2‖² current by
  /// difference.
  void MoveCenter(SiteState* st, uint32_t cell, double old_d, double new_d) {
    const double old_c = this->e_avg_[cell] + 0.5 * old_d;
    const double new_c = this->e_avg_[cell] + 0.5 * new_d;
    st->row_sq[cell / this->sketch_config().width] +=
        new_c * new_c - old_c * old_c;
  }

  /// The full w×d counter-estimate grid, row by row.
  void CollectVector(const EcmSketch<Counter>& sk, double* out) const {
    const EcmConfig& cfg = this->sketch_config();
    for (int row = 0; row < cfg.depth; ++row) {
      sk.EstimateRowAt(row, cfg.window_len, sk.Now(),
                       out + static_cast<size_t>(row) * cfg.width);
    }
  }

  /// O(d) sphere test from the maintained ball quantities: f over the
  /// ball is bounded row by row by (‖c_row‖ ± r)².
  bool SphereViolation(const SiteState& st) const {
    const double n = static_cast<double>(this->states_.size());
    const double threshold_avg = this->config_.threshold / (n * n);
    const double radius = 0.5 * std::sqrt(std::max(st.radius_sq, 0.0));
    double bound = std::numeric_limits<double>::infinity();
    for (int row = 0; row < this->sketch_config().depth; ++row) {
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
    const uint32_t width = this->sketch_config().width;
    const int depth = this->sketch_config().depth;
    std::vector<double> base_row_sq(static_cast<size_t>(depth));
    double f_avg = std::numeric_limits<double>::infinity();
    for (int row = 0; row < depth; ++row) {
      double norm_sq = 0.0;
      for (uint32_t col = 0; col < width; ++col) {
        const double v = this->e_avg_[static_cast<size_t>(row) * width + col];
        norm_sq += v * v;
      }
      base_row_sq[static_cast<size_t>(row)] = norm_sq;
      f_avg = std::min(f_avg, norm_sq);
    }
    for (SiteState& st : this->states_) st.row_sq = base_row_sq;
    const double n = static_cast<double>(this->states_.size());
    return n * n * f_avg;
  }
};

/// Threshold monitor for one key's global sliding-window count — the
/// distributed-trigger ("DDoS victim") scenario. Syncs ship only the d
/// per-row estimates of the watched key, so they cost 2·n·d doubles each.
template <ExpiryTrackedCounter Counter>
class GeometricPointMonitorT
    : public GeometricMonitorBase<GeometricPointMonitorT<Counter>, Counter,
                                  geom_internal::SiteStateBase> {
  using SiteState = geom_internal::SiteStateBase;
  using Base =
      GeometricMonitorBase<GeometricPointMonitorT, Counter, SiteState>;
  friend Base;

 public:
  struct Config : GeometricMonitorConfig {
    uint64_t key = 0;  ///< the watched key
  };

  GeometricPointMonitorT(int num_sites, const EcmConfig& sketch_config,
                         const Config& config, Transport* transport = nullptr)
      : Base(num_sites, sketch_config, config, transport,
             SiteState(static_cast<size_t>(sketch_config.depth))),
        key_(config.key) {
    // All sites share the hash seed, so the watched key's row buckets are
    // site-independent.
    std::fill(watched_cols_, watched_cols_ + kMaxSketchDepth, 0u);
    if (num_sites > 0) {
      this->coord_.site(0).sketch().RowBuckets(key_, watched_cols_);
    }
  }

 private:
  /// The watched key's row-j entry moves only when an arrival collides
  /// with it in row j; re-evaluate just the collided rows.
  void UpdateDrift(const EcmSketch<Counter>& sk, SiteState* st,
                   uint64_t key) {
    uint32_t cols[kMaxSketchDepth];
    sk.RowBuckets(key, cols);
    for (int j = 0; j < this->sketch_config().depth; ++j) {
      if (cols[j] == watched_cols_[j]) {
        this->ReevaluateCell(sk, st, static_cast<uint32_t>(j));
      }
    }
  }

  /// Cell j of the watched key's statistics vector = row j's counter at
  /// the key's bucket.
  const Counter& CellCounter(const EcmSketch<Counter>& sk,
                             uint32_t cell) const {
    return sk.CounterAt(static_cast<int>(cell), watched_cols_[cell]);
  }

  /// The sphere test recomputes its centers from the tracked entries, so
  /// there is no ball state to move.
  void MoveCenter(SiteState*, uint32_t, double, double) {}

  void CollectVector(const EcmSketch<Counter>& sk, double* out) const {
    sk.PointQueryRowsAt(key_, this->sketch_config().window_len, sk.Now(),
                        out);
  }

  /// f = min_j is 1-Lipschitz: over the ball it stays within ±r of
  /// min_j c_j, computed fresh from the d tracked entries (O(d)).
  bool SphereViolation(const SiteState& st) const {
    const double n = static_cast<double>(this->states_.size());
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
    return static_cast<double>(this->states_.size()) *
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
