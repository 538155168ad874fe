// The three pipeline stages the benchmark's workloads are built from.
//
//   ingest    — N sites, each a Site<ExponentialHistogram> co-fed to a
//               KeyedCounterStore its sketch guards; one driver thread
//               feeds timestamp-ordered per-site batches. A local query
//               round (watch-list sweep + self-join on one site) runs
//               every few steps.
//   propagate — sketch-only sites driven by ParallelIngest; every period
//               of stream time each site ships its sketch (SketchSender,
//               kAuto) over its own SocketTransport to an in-process
//               CoordinatorServer, which decodes (SketchReceiver) and,
//               once every site's image of a round is in, merges them
//               (EcmSketch::Merge) and queries the merged view.
//   query     — one centralized StreamEngine with a dyadic stack and a
//               keyed store; the loop alternates an ingest batch with a
//               query round (watch-list PointQueryExact sweep, heavy
//               hitters, three quantiles, self-join).
//
// A workload runs one stage as its timed loop on its own trace. The
// traced run additionally runs the other two stages briefly on the same
// trace, so every layer metric has a figure on every workload, and a
// ladder of single-layer rungs (hash kernel, EH add, sketch add, dyadic
// add) that no stage can time from outside the library.

#ifndef E2EBENCH_PIPELINE_H_
#define E2EBENCH_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "e2ebench/report.h"

namespace e2e {

enum class TraceKind { kWc98, kSnmp };
enum class StageKind { kIngest, kPropagate, kQuery };

const char* StageName(StageKind stage);

struct WorkloadSpec {
  const char* name;
  TraceKind trace;
  StageKind stage;
  const char* why;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  bool tiny = false;  ///< self-test sizes: small window and trace
};

/// Everything one stage run measured and checked.
struct StageResult {
  MetricSet end_to_end;   ///< the contract's end-to-end metrics
  MetricSet extra;        ///< workload-specific end-to-end figures
  MetricSet layer;        ///< per-layer figures (span-derived + gauges)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  ///< correctness failures
};

/// Sets up the stage `setups` times (reporting the median set-up time;
/// the last set-up is kept), runs its closed loop for `seconds`, checks
/// the outputs and derives the metrics. `phase` tags the stage's spans.
StageResult RunStage(StageKind stage, TraceKind trace,
                     const RunOptions& options, int setups, double seconds,
                     int phase);

/// Single-layer rungs over the workload's own trace (traced run only).
StageResult RunLadder(TraceKind trace, const RunOptions& options, int phase);

/// Names of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::string>& LayerNames();

/// Names of the end-to-end metrics every workload reports.
const std::vector<std::string>& EndToEndNames();

}  // namespace e2e

#endif  // E2EBENCH_PIPELINE_H_
