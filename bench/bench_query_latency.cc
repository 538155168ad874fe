// Query-latency microbenchmarks — the read-path counterpart of
// bench_table3's update rates. Measures, on a window-steady wc'98-like
// sketch:
//
//  * PointQuery throughput (per-call and batched) for ECM-EH/DW, plus
//    large-frontier batches that fill and read the cell-estimate table;
//  * the batch hash kernels per instruction-set tier and the per-key
//    bucket loop;
//  * SelfJoin and EstimateL1 (batched single-estimate-per-cell path);
//  * RandomizedWave::Estimate at large retained-run counts;
//  * dyadic stack adds (exact top levels), the same stack behind a
//    StreamEngine (one synopsis: the stack's level 0 is the engine's
//    sketch), heavy-hitter sweeps (batched frontier descent), and whole
//    query rounds (ingest, then L1, heavy hitters, quantiles and the
//    self-join at one (now, range)).
//
// Loops that repeat a query without updates rotate (now, range) per
// sweep, so no sweep but the first could be answered from the
// cell-estimate table (and the L1 sum it keeps) a previous sweep left
// behind.
//
// Run with `--json BENCH_prN.json` for the machine-readable rows of the
// perf-trajectory baseline (BENCH_pr4.json is the first query-side one);
// rates are queries (sweeps, estimates) per second.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/dyadic.h"
#include "src/engine/continuous.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/simd_kernels.h"
#include "src/util/timer.h"

namespace ecm::bench {
namespace {

constexpr double kEpsilon = 0.1;
constexpr double kDelta = 0.1;
constexpr uint64_t kWindow = 1 << 16;
constexpr uint64_t kEvents = 500'000;

// Doubles as an optimization sink so query loops cannot be elided.
double g_sink = 0.0;

// Loads a sketch with serving-scale weighted arrivals (per-flow byte
// counts, as in bench_table3's weighted section): the in-window counter
// masses then exercise deep level structures, the regime the query
// overhaul targets.
template <SlidingWindowCounter Counter>
Result<EcmSketch<Counter>> MakeLoadedSketch(
    const std::vector<StreamEvent>& events) {
  auto sketch = EcmSketch<Counter>::Create(
      kEpsilon, kDelta, WindowMode::kTimeBased, kWindow, /*seed=*/7,
      OptimizeFor::kPointQueries, /*max_arrivals=*/1 << 26);
  if (!sketch.ok()) return sketch;
  Rng rng(42);
  for (const StreamEvent& e : events) {
    sketch->Add(e.key, e.ts, 1 + rng.Uniform(1000));
  }
  return sketch;
}

// (now, range) probe schedules.
//
//  * kMixed — random interactive probes: read clocks a little ahead of
//    the stream, ranges over the paper's §7.1 exponential ladder plus
//    uniform fill;
//  * kMonitoring — the continuous-monitoring regime (engine/continuous,
//    dist/geometric): full-window-ish ranges at the sketch clock, the
//    workload SelfJoin/EstimateL1 serve in steady state. Ranges rotate
//    so (now, range) pairs never repeat back to back and the
//    cell-estimate table cannot short-circuit the measured sweep.
struct Probe {
  Timestamp now;
  uint64_t range;
};

enum class ProbeMode { kMixed, kMonitoring };

std::vector<Probe> MakeProbes(Timestamp now, size_t n, ProbeMode mode) {
  std::vector<Probe> probes;
  probes.reserve(n);
  Rng rng(1234);
  std::vector<uint64_t> ladder = ExponentialRanges(kWindow);
  for (size_t i = 0; i < n; ++i) {
    if (mode == ProbeMode::kMonitoring) {
      probes.push_back(Probe{now, kWindow - i % 16});
    } else {
      uint64_t range = (i % 2 == 0) ? ladder[i / 2 % ladder.size()]
                                    : 1 + rng.Uniform(kWindow);
      probes.push_back(Probe{now + rng.Uniform(16), range});
    }
  }
  return probes;
}

// --- point queries ---------------------------------------------------------

template <SlidingWindowCounter Counter>
double MeasurePointQueries(const EcmSketch<Counter>& sketch,
                           const std::vector<StreamEvent>& events,
                           size_t queries) {
  std::vector<Probe> probes =
      MakeProbes(sketch.Now(), queries, ProbeMode::kMixed);
  Rng rng(99);
  Timer timer;
  for (const Probe& p : probes) {
    uint64_t key = events[rng.Uniform(events.size())].key;
    g_sink += sketch.PointQueryAt(key, p.range, p.now);
  }
  double rate = static_cast<double>(probes.size()) / timer.ElapsedSeconds();
  RecordBenchResult(
      std::string("query/point/ECM-") + std::string(CounterName<Counter>()),
      rate, static_cast<double>(sketch.MemoryBytes()));
  return rate;
}

template <SlidingWindowCounter Counter>
double MeasurePointQueriesBatched(const EcmSketch<Counter>& sketch,
                                  const std::vector<StreamEvent>& events,
                                  size_t queries) {
  constexpr size_t kBatch = 64;
  std::vector<Probe> probes =
      MakeProbes(sketch.Now(), queries / kBatch, ProbeMode::kMixed);
  Rng rng(99);
  std::vector<uint64_t> keys(kBatch);
  std::vector<double> out(kBatch);
  Timer timer;
  for (const Probe& p : probes) {
    for (size_t k = 0; k < kBatch; ++k) {
      keys[k] = events[rng.Uniform(events.size())].key;
    }
    sketch.PointQueryBatchAt(keys.data(), kBatch, p.range, p.now, out.data());
    g_sink += out[0];
  }
  double rate = static_cast<double>(probes.size() * kBatch) /
                timer.ElapsedSeconds();
  RecordBenchResult(std::string("query/point-batched/ECM-") +
                        std::string(CounterName<Counter>()),
                    rate, 0.0);
  return rate;
}

// --- large-frontier batched point queries ---------------------------------

// At large frontier sizes (n >= width) PointQueryBatchAt estimates every
// cell once into the cell-estimate table and reads each key's cells from
// it, so column-colliding keys (frontier >> width means dozens per
// column) share one Estimate. The win tracks the per-estimate cost:
// partial ranges pay a straddling-level binary search per counter,
// full-coverage probes are O(1) off the running total — both regimes are
// recorded. Each sweep reads at its own range (range + i % 16; ranges past
// the window clamp to it, so the full regime stays full), so every sweep
// fills the table afresh.
template <SlidingWindowCounter Counter>
double MeasureLargeFrontier(const EcmSketch<Counter>& sketch, size_t frontier,
                            size_t sweeps, uint64_t range,
                            const char* regime) {
  Rng rng(7);
  std::vector<uint64_t> keys(frontier);
  for (auto& k : keys) k = rng.Uniform(1 << 16);
  std::vector<double> out(frontier);
  const Timestamp now = sketch.Now();
  Timer timer;
  for (size_t i = 0; i < sweeps; ++i) {
    sketch.PointQueryBatchAt(keys.data(), frontier, range + i % 16, now,
                             out.data());
    g_sink += out[i % frontier];
  }
  const double rate =
      static_cast<double>(sweeps * frontier) / timer.ElapsedSeconds();
  RecordBenchResult(std::string("query/point-batch-sort/ECM-") +
                        std::string(CounterName<Counter>()) + "/" + regime +
                        "/auto",
                    rate, 0.0);
  return rate;
}

// --- SIMD hash kernels: per-tier rates -------------------------------------

// The hash paths in isolation. The two batch kernels get one row per
// instruction-set tier the CPU runs, called through HashKernelsFor: the
// batched Mix64 pass and the key-parallel row fill (the kernel under every
// batched point query), here over all 3 rows of a family as in
// BucketsRowMajor. The per-key walk under Add / PointQueryAt is one inline
// scalar loop, so it gets one row. Rates are keys (buckets) per second.
void MeasureHashKernels(size_t iters) {
  constexpr size_t kN = 4096;
  constexpr int kDepth = 3;     // d for the (0.1, 0.1) bench configs
  constexpr uint32_t kW = 54;   // matching width
  HashFamily family(/*seed=*/7, kDepth);
  std::vector<PairwiseHash> rows;
  for (int j = 0; j < kDepth; ++j) rows.emplace_back(2 * j + 7, 2 * j + 8);
  Rng rng(21);
  std::vector<uint64_t> keys(kN), mixed(kN);
  for (auto& k : keys) k = rng.Next();
  HashFamily::Mix64Batch(keys.data(), kN, mixed.data());
  std::vector<uint32_t> cols(kN * kDepth);
  const size_t reps = std::max<size_t>(iters / kN, 8);

  PrintHeader(
      "SIMD hash kernels (keys/second per tier; row-major fill is "
      "per-key over all 3 rows)",
      {"kernel", "tier", "rate", "vs scalar"});
  double mix_scalar = 0.0, row_scalar = 0.0;
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAVX2}) {
    if (level > ActiveSimdLevel()) continue;
    const char* tier = SimdLevelName(level);
    const auto& kernels = internal::HashKernelsFor(level);
    {
      Timer timer;
      for (size_t i = 0; i < reps; ++i) {
        kernels.mix64_batch(keys.data(), kN, mixed.data());
        g_sink += static_cast<double>(mixed[i % kN]);
      }
      double rate = static_cast<double>(reps * kN) / timer.ElapsedSeconds();
      if (level == SimdLevel::kScalar) mix_scalar = rate;
      RecordBenchResult(std::string("query/hash/mix64-batch/") + tier, rate,
                        0.0);
      PrintRow({"mix64-batch", tier, FormatDouble(rate, 0),
                FormatDouble(mix_scalar > 0 ? rate / mix_scalar : 1.0, 2)});
    }
    {
      Timer timer;
      for (size_t i = 0; i < reps; ++i) {
        for (int j = 0; j < kDepth; ++j) {
          kernels.buckets_row(rows[j].a(), rows[j].b(), mixed.data(), kN, kW,
                              cols.data() + j * kN);
        }
        g_sink += cols[i % (kN * kDepth)];
      }
      double rate = static_cast<double>(reps * kN) / timer.ElapsedSeconds();
      if (level == SimdLevel::kScalar) row_scalar = rate;
      RecordBenchResult(std::string("query/hash/buckets-row-major/") + tier,
                        rate, 0.0);
      PrintRow({"buckets-row-major", tier, FormatDouble(rate, 0),
                FormatDouble(row_scalar > 0 ? rate / row_scalar : 1.0, 2)});
    }
  }
  {
    uint32_t out[kMaxSketchDepth];
    Timer timer;
    for (size_t i = 0; i < reps; ++i) {
      for (size_t k = 0; k < kN; ++k) family.BucketsMixed(keys[k], kW, out);
      g_sink += out[0];
    }
    double rate = static_cast<double>(reps * kN) / timer.ElapsedSeconds();
    RecordBenchResult("query/hash/buckets-mixed/scalar", rate, 0.0);
    PrintRow({"buckets-mixed", "scalar", FormatDouble(rate, 0), "-"});
  }
}

// --- self-join / L1 --------------------------------------------------------

template <typename Fn>
double MeasureQueryRate(const std::string& name, size_t calls, Timestamp now,
                        ProbeMode mode, Fn fn) {
  std::vector<Probe> probes = MakeProbes(now, calls, mode);
  Timer timer;
  for (const Probe& p : probes) g_sink += fn(p);
  const double rate =
      static_cast<double>(probes.size()) / timer.ElapsedSeconds();
  RecordBenchResult(name + "/batched", rate, 0.0);
  return rate;
}

// --- RW counter estimates at large run counts ------------------------------

double MeasureRwEstimate(size_t calls) {
  // Small epsilon => per-level capacity 10000 retained samples; distinct
  // timestamps keep runs uncompressed, so a linear suffix walk would
  // visit thousands of runs per level where the indexed path
  // binary-searches.
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.02;
  cfg.delta = 0.1;
  cfg.window_len = kWindow;
  cfg.max_arrivals = 1 << 20;
  cfg.seed = 11;
  RandomizedWave rw(cfg);
  uint64_t arrivals = ScaledEvents(200'000);
  for (Timestamp t = 1; t <= arrivals; ++t) rw.Add(t, 3);
  std::vector<Probe> probes =
      MakeProbes(rw.last_timestamp(), calls, ProbeMode::kMixed);
  Timer timer;
  for (const Probe& p : probes) g_sink += rw.Estimate(p.now, p.range);
  const double rate =
      static_cast<double>(probes.size()) / timer.ElapsedSeconds();
  RecordBenchResult("query/rw-estimate/indexed", rate,
                    static_cast<double>(rw.MemoryBytes()));
  return rate;
}

// --- dyadic heavy hitters --------------------------------------------------

double MeasureHeavyHitters(const std::vector<StreamEvent>& events,
                           size_t sweeps) {
  constexpr int kDomainBits = 16;
  auto dy = DyadicEcm<ExponentialHistogram>::Create(
      kDomainBits, kEpsilon, kDelta, WindowMode::kTimeBased, kWindow,
      /*seed=*/7, /*max_arrivals=*/1 << 17);
  if (!dy.ok()) {
    std::fprintf(stderr, "dyadic config: %s\n",
                 dy.status().ToString().c_str());
    return 0.0;
  }
  uint64_t mask = (1ULL << kDomainBits) - 1;
  for (const StreamEvent& e : events) dy->Add(e.key & mask, e.ts);
  constexpr double kPhi = 0.02;
  size_t hitters = 0;
  Timer timer;
  for (size_t i = 0; i < sweeps; ++i) {
    // Ranges past the window clamp to it: a full-window sweep whose
    // (now, range) no earlier sweep read.
    hitters = dy->HeavyHitters(kPhi, kWindow + i % 16).size();
  }
  const double rate = static_cast<double>(sweeps) / timer.ElapsedSeconds();
  std::printf("  (heavy-hitter sweeps report ~%zu keys at phi=%.2f)\n",
              hitters, kPhi);
  RecordBenchResult("query/hh/DYADIC-EH/frontier", rate,
                    static_cast<double>(dy->MemoryBytes()));
  return rate;
}

// Dyadic stack writes: the e2ebench query stack's shape (17 bits,
// ε = 0.1, δ = 0.01 → 56 × 5 cells per sketch, so levels 9–16 are exact
// prefix counters). Rate is events/s; bytes is the loaded stack.
double MeasureDyadicAdd(const std::vector<StreamEvent>& events) {
  constexpr int kDomainBits = 17;
  auto dy = DyadicEcm<ExponentialHistogram>::Create(
      kDomainBits, kEpsilon, /*delta=*/0.01, WindowMode::kTimeBased, kWindow,
      /*seed=*/7);
  if (!dy.ok()) {
    std::fprintf(stderr, "dyadic config: %s\n",
                 dy.status().ToString().c_str());
    return 0.0;
  }
  const uint64_t mask = (1ULL << kDomainBits) - 1;
  Timer timer;
  for (const StreamEvent& e : events) dy->Add(e.key & mask, e.ts);
  const double rate =
      static_cast<double>(events.size()) / timer.ElapsedSeconds();
  RecordBenchResult("query/dyadic-add/DYADIC-EH", rate,
                    static_cast<double>(dy->MemoryBytes()));
  return rate;
}

// The same stack shape behind a StreamEngine (no watches, no keyed
// store). The engine keeps one synopsis, the stack, whose level 0 is its
// sketch, so its bytes sit one stack object above the dyadic-add row's,
// not one sketch. Rate is events/s; bytes is the engine's MemoryBytes.
double MeasureEngineAdd(const std::vector<StreamEvent>& events) {
  constexpr int kDomainBits = 17;
  auto cfg = EcmConfig::Create(kEpsilon, /*delta=*/0.01,
                               WindowMode::kTimeBased, kWindow, /*seed=*/7);
  if (!cfg.ok()) {
    std::fprintf(stderr, "engine config: %s\n",
                 cfg.status().ToString().c_str());
    return 0.0;
  }
  StreamEngine::Options opts;
  opts.sketch = *cfg;
  opts.domain_bits = kDomainBits;
  StreamEngine engine(opts);
  const uint64_t mask = (1ULL << kDomainBits) - 1;
  Timer timer;
  for (const StreamEvent& e : events) engine.Ingest(e.key & mask, e.ts);
  const double rate =
      static_cast<double>(events.size()) / timer.ElapsedSeconds();
  RecordBenchResult("query/engine-add/ENGINE-EH", rate,
                    static_cast<double>(engine.MemoryBytes()));
  return rate;
}

// One dashboard query round per 32 ingested events on the e2ebench query
// stack's shape (17 bits, 56 × 5 cells per sketch): at one (now, range),
// the L1 estimate, ratio heavy hitters, three quantiles and level 0's
// self-join. The L1 sweep fills level 0's cell-estimate table, which the
// level-0 heavy-hitter probes, the quantile searches and the self-join
// then read. The stack is loaded with the first half of the events; the
// rounds ingest the rest. Rate is rounds/s; bytes is the stack after the
// rounds, tables included.
double MeasureDyadicRound(const std::vector<StreamEvent>& events) {
  constexpr int kDomainBits = 17;
  constexpr size_t kIngest = 32;
  constexpr double kPhi = 0.01;
  constexpr double kQuantiles[] = {0.5, 0.9, 0.99};
  const uint64_t ranges[] = {kWindow / 16, kWindow / 4, kWindow};
  auto dy = DyadicEcm<ExponentialHistogram>::Create(
      kDomainBits, kEpsilon, /*delta=*/0.01, WindowMode::kTimeBased, kWindow,
      /*seed=*/7);
  if (!dy.ok()) {
    std::fprintf(stderr, "dyadic config: %s\n",
                 dy.status().ToString().c_str());
    return 0.0;
  }
  const uint64_t mask = (1ULL << kDomainBits) - 1;
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) dy->Add(events[i].key & mask, events[i].ts);
  size_t rounds = 0;
  Timer timer;
  for (size_t next = half; next + kIngest <= events.size(); next += kIngest) {
    for (size_t i = next; i < next + kIngest; ++i) {
      dy->Add(events[i].key & mask, events[i].ts);
    }
    const uint64_t range = ranges[rounds % std::size(ranges)];
    g_sink += dy->EstimateL1(range);
    g_sink += static_cast<double>(dy->HeavyHitters(kPhi, range).size());
    for (double q : kQuantiles) {
      g_sink += static_cast<double>(dy->Quantile(q, range));
    }
    g_sink += dy->level(0).SelfJoin(range);
    ++rounds;
  }
  const double rate = static_cast<double>(rounds) / timer.ElapsedSeconds();
  RecordBenchResult("query/round/DYADIC-EH", rate,
                    static_cast<double>(dy->MemoryBytes()));
  return rate;
}

void Run() {
  uint64_t events_n = ScaledEvents(kEvents);
  auto events = LoadDataset(Dataset::kWc98, events_n);
  const size_t kQ = static_cast<size_t>(ScaledEvents(200'000));

  auto eh = MakeLoadedSketch<ExponentialHistogram>(events);
  auto dw = MakeLoadedSketch<DeterministicWave>(events);
  if (!eh.ok() || !dw.ok()) {
    std::fprintf(stderr, "sketch config failed\n");
    return;
  }

  PrintHeader("Point queries (queries/second, random keys and ranges)",
              {"variant", "per-call", "batched x64"});
  double eh_pq = MeasurePointQueries(*eh, events, kQ);
  double eh_pqb = MeasurePointQueriesBatched(*eh, events, kQ);
  PrintRow({"ECM-EH", FormatDouble(eh_pq, 0), FormatDouble(eh_pqb, 0)});
  double dw_pq = MeasurePointQueries(*dw, events, kQ);
  double dw_pqb = MeasurePointQueriesBatched(*dw, events, kQ);
  PrintRow({"ECM-DW", FormatDouble(dw_pq, 0), FormatDouble(dw_pqb, 0)});

  MeasureHashKernels(kQ * 8);

  PrintHeader("Large-frontier batched point queries, 4096 keys (keys/second)",
              {"regime", "rate"});
  const size_t frontier_sweeps = std::max<size_t>(kQ / 4096, 4);
  PrintRow({"partial range (w/2)",
            FormatDouble(MeasureLargeFrontier(*eh, 4096, frontier_sweeps,
                                              kWindow / 2, "partial"),
                         0)});
  PrintRow({"full window",
            FormatDouble(MeasureLargeFrontier(*eh, 4096, frontier_sweeps,
                                              kWindow, "full"),
                         0)});

  PrintHeader("SelfJoin / EstimateL1 (calls/second)",
              {"query", "regime", "rate"});
  Timestamp now = eh->Now();
  auto sj = [&](const Probe& p) {
    return eh->InnerProductAt(*eh, p.range, p.now).value();
  };
  auto l1 = [&](const Probe& p) { return eh->EstimateL1At(p.range, p.now); };
  PrintRow({"selfjoin", "monitoring",
            FormatDouble(MeasureQueryRate("query/selfjoin/ECM-EH", kQ / 40,
                                          now, ProbeMode::kMonitoring, sj),
                         0)});
  PrintRow({"selfjoin", "mixed",
            FormatDouble(MeasureQueryRate("query/selfjoin-mixed/ECM-EH",
                                          kQ / 100, now, ProbeMode::kMixed,
                                          sj),
                         0)});
  PrintRow({"estimate-l1", "monitoring",
            FormatDouble(MeasureQueryRate("query/l1/ECM-EH", kQ / 40, now,
                                          ProbeMode::kMonitoring, l1),
                         0)});
  PrintRow({"estimate-l1", "mixed",
            FormatDouble(MeasureQueryRate("query/l1-mixed/ECM-EH", kQ / 100,
                                          now, ProbeMode::kMixed, l1),
                         0)});
  // The repeat-probe regime (same (now, range), e.g. the ratio-threshold
  // descent): the first call fills the cell-estimate table and its sum,
  // every later one reads the sum.
  {
    const size_t reps = kQ;
    Timer timer;
    for (size_t i = 0; i < reps; ++i) {
      g_sink += eh->EstimateL1At(kWindow, now);
    }
    double rate = static_cast<double>(reps) / timer.ElapsedSeconds();
    RecordBenchResult("query/l1/ECM-EH/memoized", rate, 0.0);
    PrintRow({"estimate-l1", "memoized", FormatDouble(rate, 0)});
  }

  PrintHeader(
      "RandomizedWave::Estimate at ~10k retained samples/level "
      "(estimates/second)",
      {"path", "rate"});
  PrintRow({"indexed", FormatDouble(MeasureRwEstimate(kQ), 0)});

  PrintHeader("Dyadic stack adds over 17-bit keys (events/second)",
              {"stack", "rate"});
  PrintRow({"exact top levels", FormatDouble(MeasureDyadicAdd(events), 0)});
  PrintRow({"stream engine", FormatDouble(MeasureEngineAdd(events), 0)});

  PrintHeader("Dyadic heavy-hitter sweeps over 16-bit keys (sweeps/second)",
              {"descent", "rate"});
  PrintRow({"frontier-batched",
            FormatDouble(MeasureHeavyHitters(
                             events, std::max<size_t>(kQ / 2000, 4)),
                         2)});

  PrintHeader(
      "Dyadic query rounds over 17-bit keys: 32-event ingest, then L1, "
      "heavy hitters, 3 quantiles, self-join (rounds/second)",
      {"stack", "rate"});
  PrintRow({"exact top levels", FormatDouble(MeasureDyadicRound(events), 0)});

  std::printf("\n(sink %.3g)\n", g_sink);
}

}  // namespace
}  // namespace ecm::bench

int main(int argc, char** argv) {
  ecm::bench::ParseBenchArgs(argc, argv);
  ecm::bench::Run();
  return 0;
}
