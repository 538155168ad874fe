// Measurement containers and result printing for the benchmark.

#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Raw samples of one operation kind, in arrival order; percentiles are
/// computed at the end of the run.
class Latency {
 public:
  void Add(double v) { samples_.push_back(v); }
  size_t count() const { return samples_.size(); }
  /// Linear-interpolated quantile over all samples, q in [0, 1]; NaN
  /// when empty.
  double Quantile(double q) const;
  /// Median over consecutive blocks of `block` samples of each block's
  /// q-quantile (all samples when there are fewer than two blocks). A
  /// stall that hits one block — another tenant on the machine — moves
  /// one block's tail, not the figure.
  double BlockQuantile(double q, size_t block) const;

 private:
  static double QuantileOf(std::vector<double> v, double q);
  std::vector<double> samples_;
};

/// Event rate of a timed loop, recorded per ~0.1 s interval; the figure
/// is the median interval rate for the same reason as BlockQuantile.
class Throughput {
 public:
  void Add(uint64_t events, int64_t ns) {
    if (events == 0 || ns <= 0) return;
    rates_.Add(static_cast<double>(events) * 1e9 / static_cast<double>(ns));
  }
  double MedianRate() const { return rates_.Quantile(0.5); }
  size_t intervals() const { return rates_.count(); }

 private:
  Latency rates_;
};

/// One named figure with its unit and the sample count behind it (0 for
/// figures that are not sample statistics).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Ordered name -> metric list; Set keeps the first value set for a name
/// unless `overwrite` is true.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0, bool overwrite = true);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Prints "metric <name> <value> <unit> samples=<n>" lines.
void PrintMetricLines(const char* tag, const MetricSet& set);

/// Formats a double with every significant digit (round-trip exact).
std::string FormatNumber(double v);

/// The result line: the last line the benchmark prints to stdout.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2e

#endif  // E2EBENCH_REPORT_H_
