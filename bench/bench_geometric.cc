// Continuous monitoring with the geometric method (§6.2): communication
// cost of threshold-monitoring the sliding-window self-join size over
// distributed streams, vs the sync-every-update and sync-periodically
// baselines.
//
// Expected shape: the geometric monitor ships orders of magnitude fewer
// bytes than naive synchronization at equal detection quality, and its
// cost scales with the threshold margin (tight thresholds -> more local
// violations -> more syncs).

#include <cstdio>
#include <unordered_map>

#include "bench/bench_common.h"
#include "src/dist/geometric.h"
#include "src/dist/runtime.h"
#include "src/dist/serialize.h"
#include "src/util/timer.h"

namespace ecm::bench {
namespace {

constexpr uint64_t kWindow = 1 << 16;
constexpr uint64_t kEvents = 60'000;
constexpr int kSites = 4;

void Run() {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, kWindow, 61,
                               OptimizeFor::kSelfJoinQueries);
  if (!cfg.ok()) return;
  auto events = LoadDataset(Dataset::kWc98, kEvents);
  for (auto& e : events) e.node %= kSites;

  // Reference global F2 at the end of the run (for threshold placement).
  std::vector<EcmSketch<ExponentialHistogram>> probe(
      kSites, EcmSketch<ExponentialHistogram>(*cfg));
  for (const auto& e : events) probe[e.node].Add(e.key, e.ts);
  auto final_f2 = GlobalSelfJoin(probe, kWindow, cfg->epsilon_sw, 1);
  if (!final_f2.ok()) return;

  PrintHeader(
      "Geometric method: communication vs threshold margin (F2 "
      "monitoring, 4 sites, eps=0.1)",
      {"threshold/final_F2", "syncs", "local_violations", "bytes",
       "bytes_vs_sync_always", "crossed"});

  // Sync-always baseline cost: every update ships one site sketch.
  uint64_t sync_always_bytes = 0;
  {
    std::vector<EcmSketch<ExponentialHistogram>> sites(
        kSites, EcmSketch<ExponentialHistogram>(*cfg));
    size_t probe_every = events.size() / 64;
    uint64_t sampled = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      sites[events[i].node].Add(events[i].key, events[i].ts);
      if (i % probe_every == 0) {
        sampled += SerializeSketch(sites[events[i].node]).size();
      }
    }
    sync_always_bytes = sampled * (events.size() / 64);
  }

  for (double factor : {0.25, 0.5, 1.5, 4.0}) {
    GeometricSelfJoinMonitor::Config mc;
    mc.threshold = *final_f2 * factor;
    mc.check_every = 8;
    GeometricSelfJoinMonitor monitor(kSites, *cfg, mc);
    for (const auto& e : events) monitor.Process(e.node, e.key, e.ts);
    const MonitorStats& s = monitor.stats();
    PrintRow({FormatDouble(factor, 2), std::to_string(s.syncs),
              std::to_string(s.local_violations),
              std::to_string(s.network.bytes),
              FormatDouble(static_cast<double>(s.network.bytes) /
                               static_cast<double>(sync_always_bytes),
                           6),
              monitor.AboveThreshold() ? "yes" : "no"});
  }
  std::printf(
      "\nsync-always baseline: ~%llu bytes\n"
      "expected shape: thresholds far from the trajectory cost almost "
      "nothing; tight thresholds sync more; all runs orders of magnitude "
      "below sync-always\n",
      static_cast<unsigned long long>(sync_always_bytes));

  // Point-query monitoring (§1 trigger): only the d counters of the
  // watched key travel, so even frequent syncs are near-free.
  PrintHeader(
      "Geometric point monitor: watched-key threshold, bytes per run",
      {"threshold", "syncs", "bytes", "crossed", "global_estimate"});
  // Hot key: the most frequent key of the trace.
  uint64_t hot_key = 1;
  {
    std::unordered_map<uint64_t, uint64_t> freq;
    for (const auto& e : events) ++freq[e.key];
    uint64_t best = 0;
    for (const auto& [k, c] : freq) {
      if (c > best) {
        best = c;
        hot_key = k;
      }
    }
  }
  for (double threshold : {500.0, 2000.0, 8000.0, 1e7}) {
    GeometricPointMonitor::Config pc;
    pc.key = hot_key;
    pc.threshold = threshold;
    pc.check_every = 4;
    GeometricPointMonitor monitor(kSites, *cfg, pc);
    for (const auto& e : events) monitor.Process(e.node, e.key, e.ts);
    PrintRow({FormatDouble(threshold, 0),
              std::to_string(monitor.stats().syncs),
              std::to_string(monitor.stats().network.bytes),
              monitor.AboveThreshold() ? "yes" : "no",
              FormatDouble(monitor.GlobalEstimate(), 0)});
  }
  std::printf(
      "expected shape: point-monitor syncs ship d doubles per site, so "
      "total bytes stay in the KB range even with many syncs\n");

  // Steady-state cost of the O(d) incremental sphere test at the tightest
  // detection latency (one check per arrival).
  PrintHeader(
      "Sphere-test drift tracking: incremental O(d) (check_every=1 = "
      "tightest detection latency, threshold=1.5x final F2)",
      {"mode", "events/s", "syncs"});
  {
    GeometricSelfJoinMonitor::Config mc;
    mc.threshold = *final_f2 * 1.5;
    mc.check_every = 1;
    GeometricSelfJoinMonitor monitor(kSites, *cfg, mc);
    Timer timer;
    for (const auto& e : events) monitor.Process(e.node, e.key, e.ts);
    const double rate =
        static_cast<double>(events.size()) / timer.ElapsedSeconds();
    RecordBenchResult("geom/sphere-test/incremental", rate);
    PrintRow({"incremental", FormatDouble(rate, 0),
              std::to_string(monitor.stats().syncs)});
    std::printf(
        "expected shape: per-arrival checks cost O(d), independent of the "
        "sketch width (the full-rebuild reference in tests/test_oracles.h "
        "syncs on the same arrivals)\n");
  }

  // Sharded multi-threaded ingest through the runtime's ParallelIngest:
  // one worker per site shard, coordinator drained on the sync barrier.
  const uint32_t psites = ScaledSites(8);
  auto pevents = events;
  // Re-spread round-robin over the wider site set (the main section
  // clamped nodes to 4); per-site timestamps stay monotone.
  for (size_t i = 0; i < pevents.size(); ++i) {
    pevents[i].node = static_cast<uint32_t>(i) % psites;
  }
  PrintHeader(
      "ParallelIngest scaling: sharded multi-threaded geometric "
      "monitoring (8 sites, batch=1024)",
      {"workers", "events/s", "syncs", "speedup_vs_1"});
  double base_rate = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    if (workers > static_cast<int>(psites)) break;
    GeometricSelfJoinMonitor::Config mc;
    mc.threshold = *final_f2 * 1.5;
    mc.check_every = 4;
    GeometricSelfJoinMonitor monitor(static_cast<int>(psites), *cfg, mc);
    ParallelIngestOptions opts;
    opts.num_workers = workers;
    opts.batch_size = 1024;
    Timer timer;
    ParallelIngest(
        pevents, static_cast<int>(psites),
        [&monitor](int site, const StreamEvent& e) {
          return monitor.LocalProcess(site, e.key, e.ts);
        },
        [&monitor] { monitor.GlobalSync(); }, opts);
    double rate = static_cast<double>(pevents.size()) / timer.ElapsedSeconds();
    if (workers == 1) base_rate = rate;
    RecordBenchResult("geom/parallel-ingest/w" + std::to_string(workers),
                      rate);
    PrintRow({std::to_string(workers), FormatDouble(rate, 0),
              std::to_string(monitor.stats().syncs),
              FormatDouble(base_rate > 0 ? rate / base_rate : 0.0, 2)});
  }
  std::printf(
      "expected shape: near-linear scaling while syncs are rare (workers "
      "only rendezvous on local violations)\n");
}

}  // namespace
}  // namespace ecm::bench

int main(int argc, char** argv) {
  ecm::bench::ParseBenchArgs(argc, argv);
  ecm::bench::Run();
  return 0;
}
