// e2ebench: end-to-end benchmark of the ECM pipeline.
//
//   e2ebench --workload <site-ingest|propagate|query> [--seed N]
//            [--seconds S] [--trace 0|1] [--tiny] [--commit ID]
//            [--spans PATH]
//
// --trace 0 runs the workload's timed closed loop (after five set-ups,
// whose median time is setup_s) and prints every end-to-end metric.
// --trace 1 runs the loop untraced, traced, traced, untraced for S/4
// each, runs the other two stages and the single-layer ladder traced on
// the same trace, and prints every per-layer metric, the self time of every span
// and the tracing overhead (traced minus untraced, per end-to-end
// metric). The last stdout line is one JSON object; the exit code is 0
// only when every output checked out against exact truth.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/pipeline.h"
#include "e2ebench/report.h"
#include "e2ebench/trace.h"
#include "src/util/simd.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif

namespace e2e {
namespace {

// Claims tuned on the default seed must also hold on this one.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 7919;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  int trace = 0;
  bool tiny = false;
  std::string commit = "unknown";
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny] [--commit ID] "
               "[--spans PATH]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--spans") {
      a.spans = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 120.0) Usage("--seconds must be in (0, 120]");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

void PrintHeader(const Args& a, const WorkloadSpec& w) {
  std::printf(
      "# e2ebench workload=%s stage=%s seed=%llu held_out_seed=%llu "
      "seconds=%g trace=%d tiny=%d\n",
      w.name, StageName(w.stage), static_cast<unsigned long long>(a.seed),
      static_cast<unsigned long long>(kHeldOutSeed), a.seconds, a.trace,
      a.tiny ? 1 : 0);
  std::printf(
      "# nproc=%u simd=%s compiler=\"%s\" build=%s commit=%s\n",
      std::thread::hardware_concurrency(),
      ecm::SimdLevelName(ecm::ActiveSimdLevel()), E2EBENCH_COMPILER,
      E2EBENCH_BUILD_TYPE, a.commit.c_str());
  std::printf("# why: %s\n", w.why);
}

struct Totals {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const char* label, const StageResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& v : r.violations) {
      correct = false;
      std::printf("VIOLATION [%s] %s\n", label, v.c_str());
    }
  }
};

void PrintOps(const char* label, uint64_t attempted, uint64_t failed) {
  std::printf("ops %-10s attempted=%llu failed=%llu ops_failed_ratio=%s\n",
              label, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              FormatNumber(attempted > 0 ? static_cast<double>(failed) /
                                               static_cast<double>(attempted)
                                         : 0.0)
                  .c_str());
}

// Picks the contract's metrics out of `set` in contract order; a missing
// or non-finite one makes the run incorrect.
std::vector<Metric> Select(const MetricSet& set,
                           const std::vector<std::string>& names,
                           Totals* totals) {
  std::vector<Metric> out;
  for (const std::string& n : names) {
    const Metric* m = set.Find(n);
    if (m == nullptr || !std::isfinite(m->value)) {
      std::printf("VIOLATION metric %s missing or not finite\n", n.c_str());
      totals->correct = false;
      continue;
    }
    out.push_back(*m);
  }
  return out;
}

int RunUntraced(const Args& a, const WorkloadSpec& w) {
  const RunOptions o{a.seed, a.tiny};
  StageResult r = RunStage(w.stage, w.trace, o, /*setups=*/5, a.seconds, 0);
  Totals totals;
  totals.Add(w.name, r);
  PrintMetricLines("e2e  ", r.end_to_end);
  PrintMetricLines("extra", r.extra);
  PrintOps(StageName(w.stage), r.attempted, r.failed);
  const std::vector<Metric> metrics =
      Select(r.end_to_end, EndToEndNames(), &totals);
  std::printf("%s\n", ResultJson(totals.correct, totals.attempted,
                                 totals.failed, metrics)
                          .c_str());
  return totals.correct ? 0 : 1;
}

// Replaces each metric of `into` by its mean with the same metric of
// `other`.
void AverageInto(MetricSet* into, const MetricSet& other) {
  MetricSet mean;
  for (const Metric& m : into->all()) {
    const Metric* o = other.Find(m.name);
    mean.Set(m.name, o ? (m.value + o->value) / 2.0 : m.value, m.unit,
             m.samples + (o ? o->samples : 0));
  }
  *into = mean;
}

int RunTraced(const Args& a, const WorkloadSpec& w) {
  const RunOptions o{a.seed, a.tiny};
  const double quarter = a.seconds / 4.0;
  const double rung_seconds = a.tiny ? 0.3 : 1.5;
  Totals totals;

  // Untraced and traced runs in ABBA order, so drift over the run and
  // the first run's cold allocator cancel out of the overhead.
  Tracer& tracer = Tracer::Get();
  StageResult untraced = RunStage(w.stage, w.trace, o, 1, quarter, 0);
  totals.Add("untraced", untraced);
  tracer.set_enabled(true);
  StageResult traced = RunStage(w.stage, w.trace, o, 1, quarter, 1);
  totals.Add("traced", traced);
  StageResult traced2 = RunStage(w.stage, w.trace, o, 1, quarter, 1);
  totals.Add("traced", traced2);
  tracer.set_enabled(false);
  StageResult untraced2 = RunStage(w.stage, w.trace, o, 1, quarter, 0);
  totals.Add("untraced", untraced2);
  AverageInto(&untraced.end_to_end, untraced2.end_to_end);
  AverageInto(&traced.end_to_end, traced2.end_to_end);
  traced.layer = traced2.layer;  // spans of both traced runs, gauges of the last
  tracer.set_enabled(true);
  // Phases: 1 = this workload's stage, 2/3 = the other stages on this
  // workload's trace, 4 = the single-layer ladder.
  std::vector<std::pair<const char*, StageResult>> rungs;
  int phase = 2;
  for (StageKind s :
       {StageKind::kIngest, StageKind::kPropagate, StageKind::kQuery}) {
    if (s == w.stage) continue;
    rungs.emplace_back(StageName(s),
                       RunStage(s, w.trace, o, 1, rung_seconds, phase++));
    totals.Add(rungs.back().first, rungs.back().second);
  }
  StageResult ladder = RunLadder(w.trace, o, phase);
  tracer.set_enabled(false);

  // Per-layer figures: this workload's own loop first, then the other
  // stages, then the ladder.
  MetricSet layer;
  auto merge = [&layer](const MetricSet& from) {
    for (const Metric& m : from.all()) {
      layer.Set(m.name, m.value, m.unit, m.samples, /*overwrite=*/false);
    }
  };
  merge(traced.layer);
  for (const auto& r : rungs) merge(r.second.layer);
  merge(ladder.layer);

  std::printf("== tracing overhead (traced minus untraced), %s loop\n",
              StageName(w.stage));
  for (const std::string& n : EndToEndNames()) {
    const Metric* u = untraced.end_to_end.Find(n);
    const Metric* t = traced.end_to_end.Find(n);
    if (u == nullptr || t == nullptr) continue;
    std::printf("overhead %-20s untraced=%-14.6g traced=%-14.6g diff=%-+14.6g %s\n",
                n.c_str(), u->value, t->value, t->value - u->value,
                u->unit.c_str());
  }
  const Metric* ue = untraced.end_to_end.Find("ingest_eps");
  const Metric* te = traced.end_to_end.Find("ingest_eps");
  if (ue != nullptr && te != nullptr && te->value > 0.0) {
    layer.Set("trace.slowdown", ue->value / te->value, "ratio");
  }

  std::printf("== span self time (phase 1 = %s loop, 2-3 = other stages, "
              "%d = ladder)\n",
              StageName(w.stage), phase);
  for (const Tracer::NamedAgg& g : tracer.AllAggregates()) {
    std::printf("span phase=%d %-28s calls=%-9llu total_ms=%-12.3f "
                "self_ms=%-12.3f mean_us=%.3f\n",
                g.phase, g.name.c_str(),
                static_cast<unsigned long long>(g.agg.calls),
                static_cast<double>(g.agg.total_ns) / 1e6,
                static_cast<double>(g.agg.self_ns) / 1e6,
                static_cast<double>(g.agg.total_ns) / 1e3 /
                    static_cast<double>(g.agg.calls));
  }
  if (!a.spans.empty()) {
    uint64_t written = 0, dropped = 0;
    if (tracer.WriteSpans(a.spans, &written, &dropped)) {
      std::printf("# spans: %llu written to %s (%llu past the cap)\n",
                  static_cast<unsigned long long>(written), a.spans.c_str(),
                  static_cast<unsigned long long>(dropped));
    } else {
      std::printf("# spans: could not write %s\n", a.spans.c_str());
    }
  }

  PrintMetricLines("layer", layer);
  PrintOps("all", totals.attempted, totals.failed);
  const std::vector<Metric> metrics = Select(layer, LayerNames(), &totals);
  std::printf("%s\n", ResultJson(totals.correct, totals.attempted,
                                 totals.failed, metrics)
                          .c_str());
  return totals.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::Parse(argc, argv);
  const e2e::WorkloadSpec* w = e2e::FindWorkload(args.workload);
  if (w == nullptr) e2e::Usage(("unknown workload " + args.workload).c_str());
  e2e::PrintHeader(args, *w);
  std::fflush(stdout);
  return args.trace == 0 ? e2e::RunUntraced(args, *w) : e2e::RunTraced(args, *w);
}
