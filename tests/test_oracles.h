// Test-only oracles for the library's indexed and incremental fast paths:
// the counters' Estimate, the RLZ encoder's gram index, and the geometric
// monitors' incremental drift tracking.
//
// Each oracle recomputes a result the slow, obvious way from public
// state, so the differential suites can pin the fast paths bit for bit
// without the library shipping a second path.

#ifndef ECM_TESTS_TEST_ORACLES_H_
#define ECM_TESTS_TEST_ORACLES_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/compress.h"
#include "src/dist/geometric.h"
#include "src/dist/serialize.h"
#include "src/util/bytes.h"
#include "src/window/exponential_histogram.h"
#include "src/window/randomized_wave.h"
#include "src/window/window_spec.h"

namespace ecm::oracle {

/// ExponentialHistogram::Estimate by a linear walk over Buckets(): sum
/// every bucket that ends past the window boundary, and take half of the
/// oldest such bucket off if it straddles the boundary (paper §3). The
/// sums are exact for in-window masses below 2^53, so this equals the
/// indexed Estimate bit for bit there.
inline double ScanEstimate(const ExponentialHistogram& eh, Timestamp now,
                           uint64_t range) {
  const Timestamp boundary =
      WindowStart(now, std::min(range, eh.window_len()));
  double sum = 0.0;
  bool oldest = true;
  for (const BucketView& b : eh.Buckets()) {
    if (b.end <= boundary) continue;
    sum += static_cast<double>(b.size);
    if (oldest) {
      oldest = false;
      const bool fully_inside =
          boundary == 0 || b.start > boundary || b.start >= b.end;
      if (!fully_inside) sum -= static_cast<double>(b.size) / 2.0;
    }
  }
  return sum;
}

/// RandomizedWave::Estimate by a linear walk over subwaves(): per
/// sub-wave, the finest level whose retained sample still reaches the
/// boundary counts its in-range runs one by one (the coarsest level is
/// the fallback); the answer is the median over sub-waves.
inline double ScanEstimate(const RandomizedWave& rw, Timestamp now,
                           uint64_t range) {
  const Timestamp boundary =
      WindowStart(now, std::min(range, rw.window_len()));
  const int top = rw.num_levels() - 1;
  std::vector<double> ests;
  for (const RandomizedWave::SubWave& sw : rw.subwaves()) {
    double est = static_cast<double>(sw.sizes[top]) *
                 static_cast<double>(1ULL << top);
    for (int l = 0; l <= top; ++l) {
      const auto& level = sw.levels[l];
      const bool covers =
          !sw.truncated[l] || (!level.empty() && level.front().ts <= boundary);
      if (!covers) continue;
      uint64_t in_range = 0;
      for (const RandomizedWave::Sample& s : level) {
        if (s.ts > boundary) in_range += s.count;
      }
      est = static_cast<double>(in_range) * static_cast<double>(1ULL << l);
      break;
    }
    ests.push_back(est);
  }
  auto mid = ests.begin() + ests.size() / 2;
  std::nth_element(ests.begin(), mid, ests.end());
  return *mid;
}

/// RlzEncode with a per-call hash map for the gram index: every gram of
/// the reference maps to its first kRlzMaxCandidates positions, in
/// increasing order, and the greedy factorization extends candidates a
/// byte at a time. The wire image must equal RlzEncode's byte for byte.
inline std::vector<uint8_t> RlzEncode(const std::vector<uint8_t>& reference,
                                      const uint8_t* data, size_t size,
                                      uint64_t epoch) {
  using wire_internal::kRlzGramBytes;
  auto gram_at = [](const uint8_t* p) {
    uint64_t g;
    std::memcpy(&g, p, sizeof(g));
    return g;
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  for (size_t i = 0; i + kRlzGramBytes <= reference.size(); ++i) {
    std::vector<uint32_t>& slots = index[gram_at(reference.data() + i)];
    if (slots.size() < wire_internal::kRlzMaxCandidates) {
      slots.push_back(static_cast<uint32_t>(i));
    }
  }

  ByteWriter ops;
  uint64_t n_ops = 0;
  auto emit_literal = [&](size_t start, size_t end) {
    ops.PutVarint(static_cast<uint64_t>(end - start) << 1);
    ops.PutRaw(data + start, end - start);
    ++n_ops;
  };
  size_t literal_start = 0;  // pending literal run [literal_start, i)
  size_t i = 0;
  while (i < size) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (i + kRlzGramBytes <= size) {
      auto it = index.find(gram_at(data + i));
      if (it != index.end()) {
        for (uint32_t cand : it->second) {
          size_t len = 0;
          const size_t max_len = std::min(size - i, reference.size() - cand);
          while (len < max_len && reference[cand + len] == data[i + len]) {
            ++len;
          }
          if (len > best_len) {
            best_len = len;
            best_off = cand;
          }
        }
      }
    }
    if (best_len >= kRlzGramBytes) {
      if (i > literal_start) emit_literal(literal_start, i);
      ops.PutVarint((static_cast<uint64_t>(best_len) << 1) | 1);
      ops.PutVarint(best_off);
      ++n_ops;
      i += best_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  if (size > literal_start) emit_literal(literal_start, size);

  ByteWriter payload;
  payload.PutVarint(wire_internal::kRlzFormatVersion);
  payload.PutVarint(epoch);
  payload.PutFixed<uint64_t>(
      wire_internal::WireChecksum(reference.data(), reference.size()));
  payload.PutVarint(reference.size());
  payload.PutVarint(size);
  payload.PutVarint(n_ops);
  payload.PutRaw(ops.bytes().data(), ops.size());
  return wire_internal::WrapWirePayload(wire_internal::kRlzMagic, payload);
}

/// The geometric monitors' full-rebuild reference: every sphere test
/// re-materializes the site's whole statistics vector through the public
/// EcmSketch API and recomputes ‖δ‖² and the ball-center norms from
/// scratch, in the summation order of the library's InstallAverage and
/// sphere tests. With no drift tracking and no expiry heap to get wrong,
/// it must sync on exactly the same arrivals as the incremental monitors
/// (GeometricSelfJoinMonitor, and GeometricPointMonitor for the
/// point-monitor constructor), with the same global estimates.
class RebuildGeometricMonitor {
 public:
  /// Self-join (F₂) monitor: the statistics vector is the w×d grid.
  RebuildGeometricMonitor(int num_sites, const EcmConfig& cfg,
                          const GeometricMonitorConfig& mc)
      : RebuildGeometricMonitor(num_sites, cfg, mc, std::nullopt) {}

  /// Point monitor for `mc.key`: the statistics vector is its d row
  /// estimates.
  RebuildGeometricMonitor(int num_sites, const EcmConfig& cfg,
                          const GeometricPointMonitor::Config& mc)
      : RebuildGeometricMonitor(num_sites, cfg, mc, mc.key) {}

  /// Returns true iff this arrival caused a global sync.
  bool Process(int site, uint64_t key, Timestamp ts, uint64_t count = 1) {
    SiteState& st = sites_[static_cast<size_t>(site)];
    st.sketch.Add(key, ts, count);
    if (!synced_once_) {
      Sync();
      return true;
    }
    if (++st.cadence_ticks % std::max<uint64_t>(check_every_, 1) != 0) {
      return false;
    }
    Refresh(&st);
    if (!Violation(st)) return false;
    Sync();
    return true;
  }

  bool AboveThreshold() const { return above_; }
  double GlobalEstimate() const { return estimate_; }
  uint64_t crossings_signaled() const { return crossings_; }

 private:
  struct SiteState {
    SiteState(const EcmConfig& cfg, size_t dim)
        : sketch(cfg),
          v_sync(dim, 0.0),
          v_cur(dim, 0.0),
          row_sq(static_cast<size_t>(cfg.depth), 0.0) {}
    EcmSketch<ExponentialHistogram> sketch;
    std::vector<double> v_sync, v_cur;
    double radius_sq = 0.0;
    std::vector<double> row_sq;  // self-join only
    uint64_t cadence_ticks = 0;
  };

  RebuildGeometricMonitor(int num_sites, const EcmConfig& cfg,
                          const GeometricMonitorConfig& mc,
                          std::optional<uint64_t> watched)
      : cfg_(cfg),
        threshold_(mc.threshold),
        check_every_(mc.check_every),
        watched_(watched),
        dim_(watched ? static_cast<size_t>(cfg.depth)
                     : static_cast<size_t>(cfg.width) *
                           static_cast<size_t>(cfg.depth)),
        sites_(static_cast<size_t>(num_sites), SiteState(cfg, dim_)),
        e_avg_(dim_, 0.0) {}

  double n() const { return static_cast<double>(sites_.size()); }

  void Materialize(SiteState* st) const {
    const Timestamp now = st->sketch.Now();
    if (watched_) {
      st->sketch.PointQueryRowsAt(*watched_, cfg_.window_len, now,
                                  st->v_cur.data());
      return;
    }
    for (int row = 0; row < cfg_.depth; ++row) {
      st->sketch.EstimateRowAt(
          row, cfg_.window_len, now,
          &st->v_cur[static_cast<size_t>(row) * cfg_.width]);
    }
  }

  /// Full rebuild of the vector, ‖δ‖² and (self-join) the row norms.
  void Refresh(SiteState* st) const {
    Materialize(st);
    double radius_sq = 0.0;
    for (size_t k = 0; k < dim_; ++k) {
      const double drift = st->v_cur[k] - st->v_sync[k];
      radius_sq += drift * drift;
    }
    st->radius_sq = radius_sq;
    if (watched_) return;
    for (int row = 0; row < cfg_.depth; ++row) {
      double norm_sq = 0.0;
      for (uint32_t col = 0; col < cfg_.width; ++col) {
        const size_t k = static_cast<size_t>(row) * cfg_.width + col;
        const double c = e_avg_[k] + 0.5 * (st->v_cur[k] - st->v_sync[k]);
        norm_sq += c * c;
      }
      st->row_sq[static_cast<size_t>(row)] = norm_sq;
    }
  }

  bool Violation(const SiteState& st) const {
    const double radius = 0.5 * std::sqrt(std::max(st.radius_sq, 0.0));
    if (watched_) {
      const double threshold_avg = threshold_ / n();
      double min_center = std::numeric_limits<double>::infinity();
      for (size_t k = 0; k < dim_; ++k) {
        min_center = std::min(
            min_center, e_avg_[k] + 0.5 * (st.v_cur[k] - st.v_sync[k]));
      }
      return above_ ? min_center - radius < threshold_avg
                    : min_center + radius >= threshold_avg;
    }
    const double threshold_avg = threshold_ / (n() * n());
    double bound = std::numeric_limits<double>::infinity();
    for (int row = 0; row < cfg_.depth; ++row) {
      const double norm =
          std::sqrt(std::max(st.row_sq[static_cast<size_t>(row)], 0.0));
      const double extreme =
          above_ ? std::max(norm - radius, 0.0) : norm + radius;
      bound = std::min(bound, extreme * extreme);
    }
    return above_ ? bound < threshold_avg : bound >= threshold_avg;
  }

  void Sync() {
    std::fill(e_avg_.begin(), e_avg_.end(), 0.0);
    for (SiteState& st : sites_) {
      Materialize(&st);
      st.v_sync = st.v_cur;
      for (size_t k = 0; k < dim_; ++k) e_avg_[k] += st.v_sync[k];
    }
    for (double& v : e_avg_) v /= n();
    const bool was_above = above_;
    if (watched_) {
      estimate_ = n() * *std::min_element(e_avg_.begin(), e_avg_.end());
    } else {
      std::vector<double> base_row_sq(static_cast<size_t>(cfg_.depth));
      double f_avg = std::numeric_limits<double>::infinity();
      for (int row = 0; row < cfg_.depth; ++row) {
        double norm_sq = 0.0;
        for (uint32_t col = 0; col < cfg_.width; ++col) {
          const double v = e_avg_[static_cast<size_t>(row) * cfg_.width + col];
          norm_sq += v * v;
        }
        base_row_sq[static_cast<size_t>(row)] = norm_sq;
        f_avg = std::min(f_avg, norm_sq);
      }
      for (SiteState& st : sites_) st.row_sq = base_row_sq;
      estimate_ = n() * n() * f_avg;
    }
    above_ = estimate_ >= threshold_;
    if (!was_above && above_) ++crossings_;
    synced_once_ = true;
    for (SiteState& st : sites_) st.radius_sq = 0.0;
  }

  EcmConfig cfg_;
  double threshold_;
  uint64_t check_every_;
  std::optional<uint64_t> watched_;  // nullopt = self-join monitor
  size_t dim_;
  std::vector<SiteState> sites_;
  std::vector<double> e_avg_;
  double estimate_ = 0.0;
  bool above_ = false;
  bool synced_once_ = false;
  uint64_t crossings_ = 0;
};

}  // namespace ecm::oracle

#endif  // ECM_TESTS_TEST_ORACLES_H_
