// ECM-sketch (Exponential Count-Min sketch) — the paper's core
// contribution (§4): a Count-Min sketch whose counters are sliding-window
// synopses, summarizing the item-frequency distribution of a
// high-dimensional stream over time-based or count-based sliding windows.
//
// The class is templated on the counter type (exponential histogram by
// default; deterministic or randomized wave), so the paper's three
// variants are:
//
//     using EcmEh = EcmSketch<ExponentialHistogram>;   // "ECM-EH"
//     using EcmDw = EcmSketch<DeterministicWave>;      // "ECM-DW"
//     using EcmRw = EcmSketch<RandomizedWave>;         // "ECM-RW"
//
// Supported queries (all over any range r within the window):
//  * point query        f̂(x, r)         — Theorems 1/3 error bound
//  * inner product      (a_r ⊙ b_r)^     — Theorem 2 error bound
//  * self-join size F₂  (a_r ⊙ a_r)^
//  * windowed L1 estimate (for ratio-threshold heavy hitters, §6.1)
//
// Time-based sketches of parallel streams merge into a sketch of the
// order-preserving aggregate stream (§5.3); count-based sketches refuse to
// merge (Fig. 2 impossibility).
//
// Cell-estimate table. The queries of one round read the same cells: the
// §6.1 L1 estimate sums every cell, the self-join dots every row, and the
// dyadic heavy-hitter and quantile searches probe level cells. A read that
// estimates every cell anyway (EstimateL1At, InnerProduct/SelfJoin,
// EstimateRowAt, a batch of at least `width` keys) stores the w × d
// estimates in one table keyed on (update version, now, range), allocated
// by the first such read (Merge reserves it for the sketch it builds);
// every point read at that key reads the table instead of calling
// Counter::Estimate again. The fill also sums the cells in cell order, so
// the table is the sketch's one read memo: the windowed L1 at its key is
// that sum over the depth. Each entry is the same Estimate(now, range)
// call, summed and minimised in the same order, so answers are
// bit-identical with the table warm or cold.
//
// Thread safety: one thread per sketch instance. Updates were never safe
// to run concurrently with anything; const reads are not either, because
// they write the cell-estimate table and its key (`mutable` members).
// Callers that share a sketch between threads serialise every access,
// reads included, under one lock.

#ifndef ECM_CORE_ECM_SKETCH_H_
#define ECM_CORE_ECM_SKETCH_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/ecm_config.h"
#include "src/util/hash.h"
#include "src/util/result.h"
#include "src/util/simd.h"
#include "src/window/counter_traits.h"
#include "src/window/merge.h"

namespace ecm {

/// Builds the per-counter configuration appropriate for each counter type
/// from the sketch-level EcmConfig.
template <SlidingWindowCounter Counter>
typename Counter::Config MakeCounterConfig(const EcmConfig& cfg);

template <>
inline ExponentialHistogram::Config
MakeCounterConfig<ExponentialHistogram>(const EcmConfig& cfg) {
  return ExponentialHistogram::Config{cfg.epsilon_sw, cfg.window_len};
}

template <>
inline DeterministicWave::Config MakeCounterConfig<DeterministicWave>(
    const EcmConfig& cfg) {
  return DeterministicWave::Config{cfg.epsilon_sw, cfg.window_len,
                                   cfg.max_arrivals};
}

template <>
inline RandomizedWave::Config MakeCounterConfig<RandomizedWave>(
    const EcmConfig& cfg) {
  RandomizedWave::Config c;
  c.epsilon = cfg.epsilon_sw;
  c.delta = cfg.delta_sw > 0 ? cfg.delta_sw : cfg.delta / 2.0;
  c.window_len = cfg.window_len;
  c.max_arrivals = cfg.max_arrivals;
  c.seed = cfg.seed;
  return c;
}

/// Count-Min sketch over sliding windows, templated on the window counter.
template <SlidingWindowCounter Counter>
class EcmSketch {
 public:
  /// Builds a sketch from a fully-specified config (typically produced by
  /// EcmConfig::Create). Sketches that will be merged or compared must be
  /// built from compatible configs (same dimensions/seed/window/mode).
  explicit EcmSketch(const EcmConfig& config)
      : config_(config),
        hashes_(config.seed, std::min(config.depth, kMaxSketchDepth)) {
    assert(config.width > 0 && config.depth > 0 &&
           config.depth <= kMaxSketchDepth);
    // Defense in depth for hand-built configs: the one-pass update path
    // fills a fixed kMaxSketchDepth-entry bucket array, so an oversized
    // depth must shrink the sketch, not overflow the array in Release.
    config_.depth = std::min(config_.depth, kMaxSketchDepth);
    counters_.reserve(NumCounters());
    auto counter_cfg = MakeCounterConfig<Counter>(config);
    for (size_t i = 0; i < NumCounters(); ++i) {
      if constexpr (std::is_same_v<Counter, RandomizedWave>) {
        // Independent sampling randomness per counter cell.
        auto cell_cfg = counter_cfg;
        cell_cfg.seed = Mix64(config.seed ^ (0x9E3779B9ULL * (i + 1)));
        counters_.emplace_back(cell_cfg);
      } else {
        counters_.emplace_back(counter_cfg);
      }
    }
  }

  /// Convenience: compute the config and build in one step.
  static Result<EcmSketch> Create(
      double epsilon, double delta, WindowMode mode, uint64_t window_len,
      uint64_t seed, OptimizeFor optimize = OptimizeFor::kPointQueries,
      uint64_t max_arrivals = 1 << 20) {
    constexpr auto family = std::is_same_v<Counter, RandomizedWave>
                                ? CounterFamily::kRandomized
                                : CounterFamily::kDeterministic;
    auto cfg = EcmConfig::Create(epsilon, delta, mode, window_len, seed,
                                 optimize, family, max_arrivals);
    if (!cfg.ok()) return cfg.status();
    return EcmSketch(*cfg);
  }

  /// Registers `count` occurrences of `key`.
  ///
  /// Time-based mode: `ts` is the arrival's wall-clock tick (>= 1,
  /// non-decreasing). Count-based mode: `ts` is ignored; the sketch keys
  /// counters by the global arrival index of the stream.
  void Add(uint64_t key, Timestamp ts, uint64_t count = 1) {
    Timestamp use_ts;
    if (config_.mode == WindowMode::kCountBased) {
      use_ts = last_ts_ + count;
    } else {
      assert(ts >= last_ts_ && ts >= 1);
      use_ts = ts;
    }
    last_ts_ = use_ts;
    l1_lifetime_ += count;
    ++version_;
    // One-pass hashing: mix the key once, derive all d row buckets in the
    // inline scalar loop, then prefetch every touched counter before the
    // first Add — the d slots live one row-stride apart, so without the
    // prefetch each row's update eats a serial cache miss.
    uint32_t cols[kMaxSketchDepth];
    hashes_.BucketsMixed(key, config_.width, cols);
    for (int j = 0; j < config_.depth; ++j) {
      PrefetchRead(&counters_[static_cast<size_t>(j) * config_.width +
                              cols[j]]);
    }
    for (int j = 0; j < config_.depth; ++j) {
      counters_[static_cast<size_t>(j) * config_.width + cols[j]].Add(use_ts,
                                                                      count);
    }
  }

  /// Point query at the sketch's current time: estimated frequency of
  /// `key` among the arrivals in the trailing `range` ticks/arrivals.
  double PointQuery(uint64_t key, uint64_t range) const {
    return PointQueryAt(key, range, Now());
  }

  /// Point query evaluated at an explicit clock value `now` (time-based
  /// mode; `now` must be >= the last Add timestamp).
  double PointQueryAt(uint64_t key, uint64_t range, Timestamp now) const {
    double rows[kMaxSketchDepth];
    PointQueryRowsAt(key, range, now, rows);
    return *std::min_element(rows, rows + config_.depth);
  }

  /// Batched point queries: writes the estimate for each of keys[0..n)
  /// to out[0..n), identical to n PointQueryAt calls. One SIMD Mix64
  /// pass over all keys, then the key-parallel kernel fills a row-major
  /// bucket matrix (cols[j*n + k]) so each row's sweep reads one
  /// contiguous span — the access pattern the dyadic heavy-hitter
  /// frontier descent batches its sibling probes through.
  ///
  /// The keys need n·d estimates and the cell-estimate table w·d, so from
  /// n = width on the batch fills the table and reads it; smaller batches
  /// read it when it is already valid at (now, range), and otherwise
  /// estimate their own cells in caller order with a look-ahead prefetch.
  /// Per-key results are bit-identical either way: each estimate is the
  /// same Estimate(now, range) call and the per-key min is order-free.
  void PointQueryBatchAt(const uint64_t* keys, size_t n, uint64_t range,
                         Timestamp now, double* out) const {
    if (n == 0) return;
    const size_t depth = static_cast<size_t>(config_.depth);
    static thread_local std::vector<uint64_t> mixed;
    static thread_local std::vector<uint32_t> cols;  // row-major: [j*n + k]
    mixed.resize(n);
    cols.resize(n * depth);
    HashFamily::Mix64Batch(keys, n, mixed.data());
    hashes_.BucketsRowMajor(mixed.data(), n, config_.width, cols.data());
    std::fill(out, out + n, std::numeric_limits<double>::infinity());
    const double* table =
        n >= config_.width ? Table(now, range) : ValidTable(now, range);
    if (table != nullptr) {
      for (size_t j = 0; j < depth; ++j) {
        const double* row = table + j * config_.width;
        const uint32_t* row_cols = &cols[j * n];
        for (size_t k = 0; k < n; ++k) {
          out[k] = std::min(out[k], row[row_cols[k]]);
        }
      }
      return;
    }
    constexpr size_t kLookAhead = 8;
    for (size_t j = 0; j < depth; ++j) {
      const Counter* row = &counters_[j * config_.width];
      const uint32_t* row_cols = &cols[j * n];
      for (size_t k = 0; k < n; ++k) {
        if (k + kLookAhead < n) PrefetchRead(&row[row_cols[k + kLookAhead]]);
        out[k] = std::min(out[k], row[row_cols[k]].Estimate(now, range));
      }
    }
  }

  /// Batched admission check for the keyed counter store: heavy_out[k] = 1
  /// iff the sketch's point estimate of keys[k] over (now - range, now] is
  /// at least `threshold` — decision-identical to `PointQueryAt(keys[k],
  /// range, now) >= threshold` but evaluated through the batched row-major
  /// kernel, so candidate bursts cost one Mix64 pass and d contiguous row
  /// sweeps instead of n scattered probes.
  void FlagHeavyKeysAt(const uint64_t* keys, size_t n, uint64_t range,
                       Timestamp now, double threshold,
                       uint8_t* heavy_out) const {
    if (n == 0) return;
    static thread_local std::vector<double> est;
    est.resize(n);
    PointQueryBatchAt(keys, n, range, now, est.data());
    for (size_t k = 0; k < n; ++k) {
      heavy_out[k] = est[k] >= threshold ? 1 : 0;
    }
  }

  /// All d per-row contributions of `key` at once (out[0..depth)):
  /// out[j] is the estimate of the one counter `key` hashes to in row j.
  /// The geometric point monitor (§6.2) treats them as the key's
  /// statistics vector; they are materialized with a single Mix64 pass
  /// instead of one hash per row.
  void PointQueryRowsAt(uint64_t key, uint64_t range, Timestamp now,
                        double* out) const {
    uint32_t cols[kMaxSketchDepth];
    hashes_.BucketsMixed(key, config_.width, cols);
    if (const double* table = ValidTable(now, range)) {
      for (int j = 0; j < config_.depth; ++j) {
        out[j] = table[static_cast<size_t>(j) * config_.width + cols[j]];
      }
      return;
    }
    for (int j = 0; j < config_.depth; ++j) {
      PrefetchRead(&counters_[static_cast<size_t>(j) * config_.width +
                              cols[j]]);
    }
    for (int j = 0; j < config_.depth; ++j) {
      out[j] = CounterAt(j, cols[j]).Estimate(now, range);
    }
  }

  /// Issues read prefetches for every counter cell `key` touches. Callers
  /// that know their next key ahead of time — the dyadic frontier descent
  /// probing level l while level l+1's children are already enumerable —
  /// use this to overlap the d row-stride cache misses with other work.
  void PrefetchKey(uint64_t key) const {
    uint32_t cols[kMaxSketchDepth];
    hashes_.BucketsMixed(key, config_.width, cols);
    for (int j = 0; j < config_.depth; ++j) {
      PrefetchRead(&counters_[static_cast<size_t>(j) * config_.width +
                              cols[j]]);
    }
  }

  /// The d row buckets of `key` (cols[0..depth)), from one Mix64 pass —
  /// the hook drift trackers use to find which counter cell an arrival
  /// touched in each row.
  void RowBuckets(uint64_t key, uint32_t* cols) const {
    hashes_.BucketsMixed(key, config_.width, cols);
  }

  /// Estimated inner product a_r ⊙ b_r of this sketch's stream with
  /// another's over the trailing `range`. Requires compatible sketches.
  Result<double> InnerProduct(const EcmSketch& other, uint64_t range) const {
    return InnerProductAt(other, range, std::max(Now(), other.Now()));
  }

  Result<double> InnerProductAt(const EcmSketch& other, uint64_t range,
                                Timestamp now) const {
    if (!config_.CompatibleWith(other.config_)) {
      return Status::Incompatible(
          "InnerProduct requires equal dimensions, seed, window and mode");
    }
    // Each table holds every cell's estimate once (a self-join squares
    // its one table); rows dot in cell order, so the sum is the per-cell
    // loop's bit for bit.
    const double* a = Table(now, range);
    const double* b = (this == &other) ? a : other.Table(now, range);
    double best = std::numeric_limits<double>::infinity();
    for (int j = 0; j < config_.depth; ++j) {
      const size_t base = static_cast<size_t>(j) * config_.width;
      double row = 0.0;
      for (uint32_t i = 0; i < config_.width; ++i) {
        row += a[base + i] * b[base + i];
      }
      best = std::min(best, row);
    }
    return best;
  }

  /// Estimated self-join size (second frequency moment F₂) of the trailing
  /// `range`.
  double SelfJoin(uint64_t range) const {
    return UnwrapCompatible(InnerProduct(*this, range),
                            "EcmSketch::SelfJoin");
  }

  /// Estimate of ‖a_r‖₁ (total arrivals in the trailing `range`), computed
  /// as the paper recommends in §6.1: the average over rows of the sum of
  /// the row's counter estimates (per-row sums each equal ‖a_r‖₁ up to
  /// window-counter error; averaging cancels much of it).
  double EstimateL1(uint64_t range) const { return EstimateL1At(range, Now()); }

  /// Reads the sum the cell-estimate table's fill keeps, so it is O(1)
  /// while the table holds (now, range) — repeated window-total probes
  /// (the dyadic stack's ratio-threshold pruning, quantile binary
  /// searches) and an L1 after any whole-sketch read at that key. A read
  /// at another (now, range), or after an update (Add/AdvanceTo/
  /// RestoreClock or direct counter mutation), refills the table.
  double EstimateL1At(uint64_t range, Timestamp now) const {
    ++(ValidTable(now, range) != nullptr ? l1_hits_ : l1_misses_);
    Table(now, range);
    return table_l1_;
  }

  /// L1 read telemetry: a hit found the cell-estimate table valid at the
  /// read's (now, range), a miss filled it.
  struct L1CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  L1CacheStats l1_cache_stats() const { return {l1_hits_, l1_misses_}; }

  /// Copies row `row`'s counter estimates at (now, range) into
  /// out[0..width) — the geometric monitors' statistics vectors, which
  /// read every row in turn: the first row fills the cell-estimate table,
  /// the others copy it.
  void EstimateRowAt(int row, uint64_t range, Timestamp now,
                     double* out) const {
    const double* base =
        Table(now, range) + static_cast<size_t>(row) * config_.width;
    std::copy(base, base + config_.width, out);
  }

  /// Merges time-based sketches into a sketch of the order-preserving
  /// aggregate stream S₁ ⊕ … ⊕ Sₙ (§5.3). `eps_prime_sw` is the window
  /// error parameter of the merged counters (Theorem 4's ε′); pass the
  /// inputs' ε_sw to get total window error 2ε+ε². Count-based sketches
  /// are rejected (Fig. 2).
  static Result<EcmSketch> Merge(const std::vector<const EcmSketch*>& inputs,
                                 double eps_prime_sw, uint64_t seed = 0) {
    ECM_RETURN_NOT_OK(CheckInputs(inputs));
    const EcmSketch& first = *inputs[0];
    EcmConfig merged_cfg = first.config_;
    merged_cfg.epsilon_sw = eps_prime_sw;
    // Error after one aggregation level (Theorem 4 + §5.3): window error
    // inflates to ε+ε'+εε'; the total budget field tracks it for callers.
    double esw = first.config_.epsilon_sw;
    double merged_sw = esw + eps_prime_sw + esw * eps_prime_sw;
    merged_cfg.epsilon = merged_sw + merged_cfg.epsilon_cm +
                         merged_sw * merged_cfg.epsilon_cm;

    EcmSketch merged(merged_cfg);
    // A merged sketch is built to be read (a coordinator's per-round
    // view), so its cell-estimate table is reserved here, beside its
    // counters: left to the first read, the allocation lands in the
    // query and pays the allocator's cleanup of the previous view's
    // frees there.
    merged.table_.reserve(merged.NumCounters());
    std::vector<const Counter*> cell;
    cell.reserve(inputs.size());
    for (size_t i = 0; i < first.NumCounters(); ++i) {
      cell.clear();
      for (const auto* s : inputs) cell.push_back(&s->counters_[i]);
      auto m = MergeCell(cell, merged_cfg, seed + i);
      if (!m.ok()) return m.status();
      merged.counters_[i] = std::move(*m);
    }
    for (const auto* s : inputs) {
      merged.l1_lifetime_ += s->l1_lifetime_;
      merged.last_ts_ = std::max(merged.last_ts_, s->last_ts_);
    }
    return merged;
  }

  /// Point query over the union of parallel time-based streams without
  /// merging: per row, sum the inputs' cell estimates; min over rows.
  /// Each input errs by at most ε_sw of its own cell count, so Theorem 1's
  /// ε_cm + ε_sw + ε_cm·ε_sw holds (Merge pays Theorem 4's 2ε_sw + ε_sw²).
  static Result<double> SumPointQueryAt(
      const std::vector<const EcmSketch*>& sites, uint64_t key,
      uint64_t range, Timestamp now) {
    ECM_RETURN_NOT_OK(CheckInputs(sites, now));
    uint32_t cols[kMaxSketchDepth];
    sites[0]->RowBuckets(key, cols);
    double best = std::numeric_limits<double>::infinity();
    for (int j = 0; j < sites[0]->config_.depth; ++j) {
      double cell = 0.0;
      for (const auto* s : sites) {
        cell += s->CounterAt(j, cols[j]).Estimate(now, range);
      }
      best = std::min(best, cell);
    }
    return best;
  }

  /// Windowed L1 of the union stream: the sum of the inputs' EstimateL1At,
  /// each read off (or filling) that input's cell-estimate table. Same
  /// input rules as SumPointQueryAt.
  static Result<double> SumL1At(const std::vector<const EcmSketch*>& sites,
                                uint64_t range, Timestamp now) {
    ECM_RETURN_NOT_OK(CheckInputs(sites, now));
    double total = 0.0;
    for (const auto* s : sites) total += s->EstimateL1At(range, now);
    return total;
  }

  /// Current clock: last Add timestamp (time-based) or total arrivals
  /// (count-based).
  Timestamp Now() const { return last_ts_; }

  /// Advances the sketch clock without adding arrivals (time-based mode);
  /// expires counter state that slid out of the window.
  void AdvanceTo(Timestamp now) {
    assert(config_.mode == WindowMode::kTimeBased && now >= last_ts_);
    last_ts_ = now;
    ++version_;
    for (auto& c : counters_) c.Expire(now);
  }

  /// Total stream weight ever added (not windowed).
  uint64_t l1_lifetime() const { return l1_lifetime_; }

  /// Restores the clock and lifetime counters after deserialization
  /// (dist/serialize.h only).
  void RestoreClock(Timestamp now, uint64_t l1) {
    last_ts_ = now;
    l1_lifetime_ = l1;
    ++version_;
  }

  /// In-memory footprint: all counters, the cell-estimate table once a
  /// whole-sketch read allocated it, plus the sketch frame.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this) + table_.capacity() * sizeof(double);
    for (const auto& c : counters_) bytes += c.MemoryBytes();
    return bytes;
  }

  const EcmConfig& config() const { return config_; }
  size_t NumCounters() const {
    return static_cast<size_t>(config_.width) * config_.depth;
  }

  /// Counter cell access (row-major), for serialization and tests.
  const Counter& CounterAt(int row, uint32_t col) const {
    return counters_[static_cast<size_t>(row) * config_.width + col];
  }
  Counter& CounterAt(int row, uint32_t col) {
    // Handing out a mutable counter (deserialization, tests) may change
    // its contents, so the cell-estimate table (and the L1 it sums) must
    // not outlive it.
    ++version_;
    return counters_[static_cast<size_t>(row) * config_.width + col];
  }

 private:
  // The input rules Merge and the Sum* reads share: some input, all
  // time-based (Fig. 2) and compatible, none ahead of the reads' `now`.
  static Status CheckInputs(const std::vector<const EcmSketch*>& inputs,
                            Timestamp now = ~Timestamp{0}) {
    if (inputs.empty()) return Status::InvalidArgument("EcmSketch: no inputs");
    const EcmConfig& first = inputs[0]->config_;
    if (first.mode == WindowMode::kCountBased) {
      return Status::Unsupported(
          "count-based ECM-sketches cannot be combined: the synopses lose "
          "the interleaving of the streams' arrivals (paper Fig. 2)");
    }
    for (const auto* s : inputs) {
      if (!first.CompatibleWith(s->config_)) {
        return Status::Incompatible(
            "EcmSketch: inputs differ in dimensions, seeds, windows or mode");
      }
      if (now < s->Now()) {
        return Status::InvalidArgument("EcmSketch: clock behind an input's");
      }
    }
    return Status::OK();
  }

  // Merges one counter cell across the input sketches: randomized waves
  // unite their samples (§5.2), every other counter merges by replay
  // (§5.1).
  static Result<Counter> MergeCell(const std::vector<const Counter*>& cell,
                                   const EcmConfig& merged_cfg,
                                   uint64_t seed) {
    if constexpr (std::is_same_v<Counter, RandomizedWave>) {
      return MergeRandomizedWaves(cell, Mix64(merged_cfg.seed ^ seed));
    } else {
      return MergeByReplay(cell, MakeCounterConfig<Counter>(merged_cfg));
    }
  }

  // The cell-estimate table if it holds this state's estimates at
  // (now, range), else nullptr.
  const double* ValidTable(Timestamp now, uint64_t range) const {
    const bool valid = table_version_ == version_ && table_now_ == now &&
                       table_range_ == range && !table_.empty();
    return valid ? table_.data() : nullptr;
  }

  // The cell-estimate table at (now, range), filled first (one Estimate
  // per cell, row-major, summed in that order into the L1) unless it
  // already holds them.
  const double* Table(Timestamp now, uint64_t range) const {
    if (const double* table = ValidTable(now, range)) return table;
    table_.resize(NumCounters());
    double total = 0.0;
    for (size_t c = 0; c < counters_.size(); ++c) {
      table_[c] = counters_[c].Estimate(now, range);
      total += table_[c];
    }
    table_version_ = version_;
    table_now_ = now;
    table_range_ = range;
    table_l1_ = total / config_.depth;
    return table_.data();
  }

  EcmConfig config_;
  HashFamily hashes_;
  std::vector<Counter> counters_;  // row-major depth × width
  Timestamp last_ts_ = 0;  // count-based: the global arrival index
  uint64_t l1_lifetime_ = 0;
  uint64_t version_ = 0;  // bumped on every state mutation
  // Key of table_: the version and (now, range) its estimates were taken
  // at. A copy carries the table with the counters it describes.
  mutable uint64_t table_version_ = 0;
  mutable Timestamp table_now_ = 0;
  mutable uint64_t table_range_ = 0;
  mutable double table_l1_ = 0.0;  // the table's sum over the depth
  mutable std::vector<double> table_;  // row-major depth × width estimates
  mutable uint64_t l1_hits_ = 0;
  mutable uint64_t l1_misses_ = 0;
};

/// The paper's three variants.
using EcmEh = EcmSketch<ExponentialHistogram>;
using EcmDw = EcmSketch<DeterministicWave>;
using EcmRw = EcmSketch<RandomizedWave>;

}  // namespace ecm

#endif  // ECM_CORE_ECM_SKETCH_H_
