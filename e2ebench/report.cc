#include "e2ebench/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace e2e {

double Latency::Quantile(double q) const { return QuantileOf(samples_, q); }

double Latency::BlockQuantile(double q, size_t block) const {
  const size_t blocks = samples_.size() / block;
  if (blocks < 2) return Quantile(q);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    per_block.push_back(QuantileOf(
        std::vector<double>(samples_.begin() + b * block,
                            samples_.begin() + (b + 1) * block),
        q));
  }
  return QuantileOf(std::move(per_block), 0.5);
}

double Latency::QuantileOf(std::vector<double> s, double q) {
  if (s.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit, uint64_t samples,
                    bool overwrite) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      if (overwrite) m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);  // shortest exact
  return std::string(buf, res.ptr);
}

void PrintMetricLines(const char* tag, const MetricSet& set) {
  for (const Metric& m : set.all()) {
    std::printf("%s %-36s %-22s %-10s samples=%llu\n", tag, m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
