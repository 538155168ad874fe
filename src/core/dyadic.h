// Dyadic ECM-sketch stack (paper §6.1): log|U| levels, the i-th
// summarizing dyadic ranges of length 2^i, enabling over sliding windows:
//
//  * heavy hitters by group testing (Theorem 5): recursive descent from
//    the coarsest ranges, pruning every dyadic range whose estimated
//    in-window frequency is below the threshold;
//  * range queries: any [lo, hi] decomposes into <= 2·log|U| dyadic
//    ranges whose estimates sum;
//  * quantiles: binary search over prefix-range sums.
//
// The threshold φ can be an absolute count or a ratio of the in-window
// arrivals ‖a_r‖₁; for the ratio form the paper recommends estimating
// ‖a_r‖₁ from sketch CM₀ itself (average of per-row counter sums) rather
// than a separate synopsis — implemented in EcmSketch::EstimateL1.
//
// Level 0 is the stream's own sketch: it is built from the config
// unchanged, seed included, so it is exactly the EcmSketch(config) a
// stack-less user would keep, and a StreamEngine with a key domain holds
// no second sketch beside it. Levels ≥ 1 (and the exact levels' per-prefix
// randomness) derive their seeds from the config's via LevelSeed.
//
// Exact top levels. Level i holds only 2^(domain_bits − i) prefixes.
// Level i ≥ 1 whose prefix domain fits in one sketch's width × depth
// cells is kept exact: one window counter per prefix instead of an
// ECM-sketch, since a Count-Min row there only adds collisions and d
// times the writes (the small-domain case of Count-Min range queries,
// Cormode & Muthukrishnan 2005). The prefix domain halves per level, so
// every level from the first exact one up is exact; with 17 bits and a
// 56 × 5 sketch, levels 9–16 hold 510 counters in place of 8 × 280.
// Level 0 is always a sketch: it answers point queries and the L1
// estimate. Per-level error over the trailing range, for a dyadic range
// with true in-window count c:
//
//  * sketch level: |est − c| ≤ ε_sw·c + ε_cm·(1 + ε_sw)·‖a_r‖₁ w.h.p.
//    (Theorem 1);
//  * exact level: |est − c| ≤ ε_sw·c — the window counter's error alone
//    (0 for the exact window counter).
//
// So Theorem 5's completeness and the range-query bound only tighten.

#ifndef ECM_CORE_DYADIC_H_
#define ECM_CORE_DYADIC_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/ecm_sketch.h"

namespace ecm {

/// One dyadic interval [prefix·2^level, (prefix+1)·2^level - 1].
struct DyadicRange {
  int level;
  uint64_t prefix;
};

/// Decomposes the inclusive key interval [lo, hi] (within a domain of
/// 2^domain_bits keys) into at most 2·domain_bits disjoint dyadic ranges.
std::vector<DyadicRange> DyadicDecompose(uint64_t lo, uint64_t hi,
                                         int domain_bits);

/// Appending variant of DyadicDecompose: pushes the decomposition onto
/// `out` (which is not cleared) and returns the number of ranges
/// appended. Lets hot callers — RangeQuery, the quantile binary search —
/// reuse one scratch vector so steady-state queries allocate nothing.
size_t DyadicDecomposeInto(uint64_t lo, uint64_t hi, int domain_bits,
                           std::vector<DyadicRange>* out);

/// A heavy-hitter report entry.
struct HeavyHitter {
  uint64_t key;
  double estimate;  ///< estimated in-window frequency
};

/// Sliding-window frequent-items / range-query / quantile structure.
template <SlidingWindowCounter Counter = ExponentialHistogram>
class DyadicEcm {
 public:
  /// \param domain_bits  keys live in [0, 2^domain_bits)
  /// \param config       configuration shared by all levels: level 0
  ///                     uses it as is, levels ≥ 1 derive their hash
  ///                     seeds from it; its width × depth also sets the
  ///                     first exact level
  DyadicEcm(int domain_bits, const EcmConfig& config)
      : sketch_levels_(domain_bits), domain_bits_(domain_bits) {
    const uint64_t cells = static_cast<uint64_t>(config.width) * config.depth;
    for (int i = 1; i < domain_bits_; ++i) {
      if ((uint64_t{1} << (domain_bits_ - i)) <= cells) {
        sketch_levels_ = i;
        break;
      }
    }
    levels_.reserve(sketch_levels_);
    levels_.emplace_back(config);
    for (int i = 1; i < sketch_levels_; ++i) {
      EcmConfig level_cfg = config;
      level_cfg.seed = LevelSeed(config, i);
      levels_.emplace_back(level_cfg);
    }
    exact_.reserve(ExactOffset(sketch_levels_ - 1));
    const auto counter_cfg = MakeCounterConfig<Counter>(config);
    for (int i = domain_bits_ - 1; i >= sketch_levels_; --i) {
      for (uint64_t p = 0; p < (uint64_t{1} << (domain_bits_ - i)); ++p) {
        if constexpr (std::is_same_v<Counter, RandomizedWave>) {
          // Independent sampling randomness per prefix counter, seeded
          // as an EcmSketch seeds its cells.
          auto cell_cfg = counter_cfg;
          cell_cfg.seed =
              Mix64(LevelSeed(config, i) ^ (0x9E3779B9ULL * (p + 1)));
          exact_.emplace_back(cell_cfg);
        } else {
          exact_.emplace_back(counter_cfg);
        }
      }
    }
  }

  static Result<DyadicEcm> Create(int domain_bits, double epsilon,
                                  double delta, WindowMode mode,
                                  uint64_t window_len, uint64_t seed,
                                  uint64_t max_arrivals = 1 << 20) {
    if (domain_bits < 1 || domain_bits > 63) {
      return Status::InvalidArgument("domain_bits must be in [1, 63]");
    }
    constexpr auto family = std::is_same_v<Counter, RandomizedWave>
                                ? CounterFamily::kRandomized
                                : CounterFamily::kDeterministic;
    auto cfg = EcmConfig::Create(epsilon, delta, mode, window_len, seed,
                                 OptimizeFor::kPointQueries, family,
                                 max_arrivals);
    if (!cfg.ok()) return cfg.status();
    return DyadicEcm(domain_bits, *cfg);
  }

  /// Registers `count` occurrences of `key` (< 2^domain_bits) at `ts`.
  /// Exact levels skip a key outside the domain: it lies in no prefix a
  /// query can name.
  void Add(uint64_t key, Timestamp ts, uint64_t count = 1) {
    for (int i = 0; i < sketch_levels_; ++i) {
      levels_[i].Add(key >> i, ts, count);
    }
    if (sketch_levels_ < domain_bits_) AddExact(key, count);
  }

  /// Estimated number of in-window arrivals with key in [lo, hi]. The
  /// decomposed dyadic ranges are sorted by level; each level sketch
  /// answers its prefixes in one batched pass, and each exact level
  /// reads its prefix counters (thread-local scratch; no per-call
  /// allocations beyond the decomposition itself).
  double RangeQuery(uint64_t lo, uint64_t hi, uint64_t range) const {
    static thread_local std::vector<DyadicRange> ranges;
    ranges.clear();
    DyadicDecomposeInto(lo, hi, domain_bits_, &ranges);
    std::sort(ranges.begin(), ranges.end(),
              [](const DyadicRange& a, const DyadicRange& b) {
                return a.level < b.level;
              });
    static thread_local std::vector<uint64_t> keys;
    static thread_local std::vector<double> ests;
    double sum = 0.0;
    for (size_t i = 0; i < ranges.size();) {
      const int level = ranges[i].level;
      keys.clear();
      while (i < ranges.size() && ranges[i].level == level) {
        keys.push_back(ranges[i++].prefix);
      }
      ests.resize(keys.size());
      EstimateLevel(level, keys.data(), keys.size(), range, ests.data());
      for (double e : ests) sum += e;
    }
    return sum;
  }

  /// All keys whose estimated in-window frequency is >= `threshold`
  /// occurrences (group-testing descent). With the ratio form's
  /// threshold φ·‖a_r‖₁ (HeavyHitters) and φ ≤ ½, Theorem 5 gives:
  ///
  ///  * completeness: every key with true frequency >= (φ+ε)·‖a_r‖₁ is
  ///    reported;
  ///  * soundness, w.h.p.: every reported key's true frequency is
  ///    >= (φ−ε)·‖a_r‖₁. Count-Min overestimates by up to ε_cm·‖a_r‖₁
  ///    and the windows err by ε_sw either way, so a key below φ·‖a_r‖₁
  ///    can be reported; the ratio form tells heavy keys from light
  ///    ones only when φ > ε.
  ///
  /// The descent runs level by level on a frontier of surviving
  /// prefixes: each sketch level's sibling probes go through the level
  /// sketch's batched point-query path in one pass (one hash pass per
  /// prefix, row-major counter sweep) instead of one PointQuery per tree
  /// node; an exact level reads one counter per prefix. A sketch level
  /// whose frontier reaches its width fills the level's cell-estimate
  /// table, and level 0 reads the table the ratio form's L1 estimate
  /// filled. Reported keys, estimates and order are identical to one
  /// RangeQuery per surviving dyadic range, descended recursively
  /// (ascending key order). The frontier lives in thread-local scratch,
  /// so a steady-state descent allocates only its report.
  std::vector<HeavyHitter> HeavyHittersAbsolute(double threshold,
                                                uint64_t range) const {
    std::vector<HeavyHitter> out;
    static thread_local std::vector<uint64_t> frontier;
    static thread_local std::vector<uint64_t> next;
    static thread_local std::vector<double> ests;
    frontier.assign({0, 1});
    for (int level = domain_bits_ - 1; level >= 0 && !frontier.empty();
         --level) {
      ests.resize(frontier.size());
      EstimateLevel(level, frontier.data(), frontier.size(), range,
                    ests.data());
      next.clear();
      for (size_t i = 0; i < frontier.size(); ++i) {
        if (ests[i] < threshold) continue;
        if (level == 0) {
          out.push_back(HeavyHitter{frontier[i], ests[i]});
        } else {
          const uint64_t left = frontier[i] * 2;
          next.push_back(left);
          next.push_back(left + 1);
          // Warm the children's counters on the next level while this
          // level's filter is still running: by the time the next probe
          // reads them, the misses (row-stride ones on a sketch level)
          // are already in flight.
          if (level - 1 >= sketch_levels_) {
            const Counter* cells = &exact_[ExactOffset(level - 1) + left];
            PrefetchRead(cells);
            PrefetchRead(cells + 1);
          } else {
            levels_[level - 1].PrefetchKey(left);
            levels_[level - 1].PrefetchKey(left + 1);
          }
        }
      }
      frontier.swap(next);
    }
    return out;
  }

  /// Keys with estimated frequency >= phi_ratio · ‖a_r‖₁, with ‖a_r‖₁
  /// estimated from the finest sketch per §6.1.
  std::vector<HeavyHitter> HeavyHitters(double phi_ratio,
                                        uint64_t range) const {
    double l1 = EstimateL1(range);
    return HeavyHittersAbsolute(phi_ratio * l1, range);
  }

  /// ‖a_r‖₁ estimate (average of per-row counter sums of CM₀), read off
  /// CM₀'s cell-estimate table: the first read at a (now, range) fills
  /// the table and its sum, and the ratio-threshold descent's level-0
  /// probes, the quantile searches and SelfJoin at that (now, range) then
  /// read the same table.
  double EstimateL1(uint64_t range) const {
    return levels_[0].EstimateL1(range);
  }

  /// Smallest key k such that the estimated count of keys <= k reaches
  /// q · ‖a_r‖₁ (the q-quantile of the in-window key distribution).
  uint64_t Quantile(double q, uint64_t range) const {
    double target = q * EstimateL1(range);
    uint64_t lo = 0;
    uint64_t hi = (domain_bits_ >= 64) ? ~0ULL : (1ULL << domain_bits_) - 1;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (RangeQuery(0, mid, range) >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  /// Memory of all level sketches and exact-level counters.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    for (const auto& s : levels_) bytes += s.MemoryBytes();
    for (const auto& c : exact_) bytes += c.MemoryBytes();
    return bytes;
  }

  int domain_bits() const { return domain_bits_; }
  /// Levels [0, sketch_levels()) are ECM-sketches; the levels above are
  /// exact (one counter per prefix).
  int sketch_levels() const { return sketch_levels_; }
  /// The sketch of level i; valid only for i < sketch_levels().
  const EcmSketch<Counter>& level(int i) const {
    assert(i >= 0 && i < sketch_levels_);
    return levels_[i];
  }

 private:
  static uint64_t LevelSeed(const EcmConfig& config, int level) {
    return Mix64(config.seed + 0x1234567ULL * (level + 1));
  }

  /// Exact levels are stored top level first, so level i's 2^(bits − i)
  /// counters start after the 2 + 4 + … + 2^(bits − i − 1) of the levels
  /// above it.
  size_t ExactOffset(int level) const {
    return (size_t{1} << (domain_bits_ - level)) - 2;
  }

  /// The exact-level half of Add, kept out of line so the callers that
  /// inline Add carry one call rather than the exact-level loop. The
  /// clock is level 0's: the arrival's tick, or in count-based mode the
  /// stack's global arrival index, as EcmSketch::Add keys its cells.
  [[gnu::noinline]] void AddExact(uint64_t key, uint64_t count) {
    if (key >> domain_bits_ != 0) return;
    const Timestamp now = levels_[0].Now();
    for (int i = sketch_levels_; i < domain_bits_; ++i) {
      exact_[ExactOffset(i) + (key >> i)].Add(now, count);
    }
  }

  /// Estimates of n prefixes of one level at the stack's clock.
  void EstimateLevel(int level, const uint64_t* prefixes, size_t n,
                     uint64_t range, double* out) const {
    if (level < sketch_levels_) {
      const EcmSketch<Counter>& sketch = levels_[level];
      sketch.PointQueryBatchAt(prefixes, n, range, sketch.Now(), out);
      return;
    }
    const Counter* cells = &exact_[ExactOffset(level)];
    const Timestamp now = levels_[0].Now();
    for (size_t k = 0; k < n; ++k) {
      out[k] = cells[prefixes[k]].Estimate(now, range);
    }
  }

  int sketch_levels_;  ///< first exact level, or domain_bits_ if none
  int domain_bits_;
  std::vector<EcmSketch<Counter>> levels_;  ///< levels [0, sketch_levels_)
  std::vector<Counter> exact_;  ///< levels [sketch_levels_, domain_bits_)
};

}  // namespace ecm

#endif  // ECM_CORE_DYADIC_H_
