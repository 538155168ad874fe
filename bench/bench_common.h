// Shared harness utilities for the paper-reproduction benches: workload
// construction, query-set generation (exponentially growing ranges, as in
// §7.1), error measurement against exact ground truth, and row printing.

#ifndef ECM_BENCH_BENCH_COMMON_H_
#define ECM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bench/baselines/baselines.h"
#include "src/core/ecm_sketch.h"
#include "src/stream/event.h"
#include "src/stream/generators.h"
#include "src/stream/snmp_like.h"
#include "src/stream/wc98_like.h"

namespace ecm::bench {

/// Parses shared bench flags. `--smoke` switches every bench into a
/// fast-path mode: LoadDataset clamps the event count hard so each binary
/// finishes in seconds — CI runs every bench this way on each PR to catch
/// benchmark bit-rot without paying full experiment runtimes.
/// `--json <path>` makes the bench write every RecordBenchResult row to
/// `path` as machine-readable JSON when the process exits — the format of
/// the committed BENCH_*.json perf-trajectory baselines.
void ParseBenchArgs(int argc, char** argv);

/// True iff --smoke was passed to ParseBenchArgs.
bool SmokeMode();

/// Records one machine-readable result row (throughput in events/second
/// and, where meaningful, a memory/wire footprint in bytes). Rows are
/// written to the --json path at exit; without --json they are dropped.
void RecordBenchResult(const std::string& name, double events_per_sec,
                       double bytes = 0.0);

/// Per-op latency percentiles attached to a row (nanoseconds).
struct LatencyStats {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Row with latency percentiles: the JSON object additionally carries
/// "p50_ns"/"p99_ns". Rows recorded through the two-argument overload are
/// byte-identical to what older baselines contain.
void RecordBenchResult(const std::string& name, double events_per_sec,
                       double bytes, const LatencyStats& latency);

/// Collects per-op latency samples and extracts percentiles. Sampling is
/// deterministic (every `stride`-th op is timed) so runs are comparable;
/// timing every op would perturb the throughput being measured.
class LatencySampler {
 public:
  /// \param stride  time one op out of every `stride` (>= 1)
  explicit LatencySampler(uint64_t stride = 64);

  /// True when the upcoming op should be timed (call once per op).
  bool ShouldSample();

  /// Records one timed op's duration in nanoseconds.
  void Record(double ns) { samples_.push_back(ns); }

  /// Percentiles over the recorded samples (zeros when empty).
  LatencyStats Stats() const;

  size_t count() const { return samples_.size(); }

 private:
  uint64_t stride_;
  uint64_t tick_ = 0;
  std::vector<double> samples_;
};

/// `full` outside smoke mode, a tiny clamped count inside it. LoadDataset
/// applies this automatically; benches that synthesize streams directly
/// should route their event counts through it.
uint64_t ScaledEvents(uint64_t full);

/// Site/node-count scaling for the distributed benches: `full` outside
/// smoke mode, capped at a handful inside it (constructing hundreds of
/// per-site sketches dominates smoke runtime otherwise).
uint32_t ScaledSites(uint32_t full);

/// Short counter name used in bench row names ("ECM-EH", ".../EQW/unit").
/// A counter without a name fails to compile rather than printing a row
/// no baseline can match.
template <SlidingWindowCounter C>
constexpr std::string_view CounterName() {
  if constexpr (std::is_same_v<C, ExponentialHistogram>) {
    return "EH";
  } else if constexpr (std::is_same_v<C, DeterministicWave>) {
    return "DW";
  } else if constexpr (std::is_same_v<C, RandomizedWave>) {
    return "RW";
  } else if constexpr (std::is_same_v<C, ExactWindow>) {
    return "EXACT";
  } else if constexpr (std::is_same_v<C, EquiWidthWindow>) {
    return "EQW";
  } else if constexpr (std::is_same_v<C, HybridHistogram>) {
    return "HYB";
  } else {
    static_assert(!std::is_same_v<C, C>, "CounterName: unnamed counter");
  }
}

/// Which synthesized trace a bench row uses.
enum class Dataset { kWc98, kSnmp };

const char* DatasetName(Dataset d);

/// Materializes the scaled synthetic trace for a dataset (deterministic).
std::vector<StreamEvent> LoadDataset(Dataset d, uint64_t num_events,
                                     uint64_t seed = 0);

/// Query ranges growing exponentially as in the paper (§7.1: query q_i
/// covers [t - 10^i, t]), capped at the window length.
std::vector<uint64_t> ExponentialRanges(uint64_t window_len);

/// Point-query error measurement over every distinct in-range key:
/// err = |est - true| / ‖a_r‖₁ (the paper's metric). Returns (avg, max).
struct ErrorSummary {
  double avg = 0.0;
  double max = 0.0;
  size_t queries = 0;
};

template <SlidingWindowCounter Counter>
ErrorSummary MeasurePointErrors(const EcmSketch<Counter>& sketch,
                                const std::vector<StreamEvent>& events,
                                Timestamp now, uint64_t range) {
  ExactRangeStats exact = ComputeExactRangeStats(events, now, range);
  ErrorSummary s;
  if (exact.l1 == 0) return s;
  double sum = 0.0;
  for (const auto& [key, count] : exact.freqs) {
    double est = sketch.PointQueryAt(key, range, now);
    double err = std::abs(est - static_cast<double>(count)) /
                 static_cast<double>(exact.l1);
    sum += err;
    s.max = std::max(s.max, err);
    ++s.queries;
  }
  s.avg = s.queries ? sum / static_cast<double>(s.queries) : 0.0;
  return s;
}

/// Self-join error: |est - true| / ‖a_r‖₁² (the paper's metric).
template <SlidingWindowCounter Counter>
double MeasureSelfJoinError(const EcmSketch<Counter>& sketch,
                            const std::vector<StreamEvent>& events,
                            Timestamp now, uint64_t range) {
  ExactRangeStats exact = ComputeExactRangeStats(events, now, range);
  if (exact.l1 == 0) return 0.0;
  double est = sketch.InnerProductAt(sketch, range, now).value();
  double denom = static_cast<double>(exact.l1) * static_cast<double>(exact.l1);
  return std::abs(est - exact.self_join) / denom;
}

/// Feeds a full event vector into a sketch.
template <SlidingWindowCounter Counter>
void FeedAll(EcmSketch<Counter>* sketch,
             const std::vector<StreamEvent>& events) {
  for (const StreamEvent& e : events) sketch->Add(e.key, e.ts);
}

/// Prints a header line (once) and aligned row values, CSV-ish for easy
/// re-plotting.
void PrintHeader(const std::string& title,
                 const std::vector<std::string>& cols);
void PrintRow(const std::vector<std::string>& cells);
std::string FormatDouble(double v, int precision = 5);
std::string FormatBytes(double bytes);

}  // namespace ecm::bench

#endif  // ECM_BENCH_BENCH_COMMON_H_
