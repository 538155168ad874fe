// Million-live-key scenario for the keyed counter store: sustained add
// throughput with p50/p99 per-op latency (the incremental rehash means
// no add stalls on a full-table migration), steady-state memory per
// resident key against the naive map-of-shared_ptr shape it replaces
// (SAM's `std::map<string, shared_ptr<EH>>`, plus the hash-keyed
// `std::map<uint64_t, ...>` variant), and the sketch-guarded admission
// hit rate under a rotating hot set (the identity of the heavy keys
// drifts, forcing continuous admission + eviction churn).
//
// Rows (committed to BENCH_prN.json, gated by tools/check_bench.py):
//   keyed/1m/add-throughput        events/s, with p50_ns / p99_ns latency
//   keyed/1m/mem-per-key           bytes = store heap bytes per live key
//   keyed/small/mem-per-key        bytes = the same, 300 keys, budget 2048
//   keyed/1m/mem-per-key-naive     bytes = SAM string-keyed map, per key
//   keyed/1m/mem-per-key-naive-u64 bytes = uint64-keyed map, per key
//   keyed/1m/admission-hit-rate    events/s = % of events absorbed exactly
//
// Memory rows are real allocator deltas (mallinfo2, main arena + mmap),
// not self-reported accounting, measured with the same event sequence on
// both sides. Both mem-per-key rows carry a --ceiling in CI; the naive
// rows exist so the >= 5x claim in the README is re-measured on every
// run, not quoted. The small-store row holds a few hundred keys of
// widely varied arrival counts (11 slab size classes in use), the shape of
// one site's store in the end-to-end benchmark: there the per-class slab
// pages, not the per-key state, decide the footprint.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#define ECM_BENCH_HAVE_MALLINFO 1
#endif

#include "bench/bench_common.h"
#include "src/engine/keyed_store.h"
#include "src/stream/zipf.h"
#include "src/util/random.h"
#include "src/util/timer.h"
#include "src/window/exponential_histogram.h"

namespace ecm::bench {
namespace {

constexpr double kEpsilon = 0.1;
constexpr uint64_t kLiveKeysFull = 1'000'000;

// Live heap bytes: main-arena allocations plus mmap'd blocks (large
// vectors bypass the arena, so uordblks alone undercounts). Falls back
// to 0 where mallinfo2 is unavailable; callers then use self-reported
// accounting instead.
size_t HeapBytes() {
#ifdef ECM_BENCH_HAVE_MALLINFO
  struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

struct ScaleWorkload {
  uint64_t keys;
  uint64_t window;
  uint64_t events;
};

// Three events per key inside one window: the cold-tail steady state of
// a million-key population (a handful of level-0 buckets per key).
ScaleWorkload MakeScale() {
  // Smoke mode shrinks the population through the shared event budget so
  // CI finishes in seconds; the per-key memory shape is scale-invariant.
  const uint64_t keys = std::min<uint64_t>(kLiveKeysFull,
                                           ScaledEvents(kLiveKeysFull));
  return ScaleWorkload{keys, 3 * keys + 16, 3 * keys};
}

// Throughput / tail-latency pass: keys strictly round-robin, the
// harshest cache interleave (every add touches a different record).
void RunAddLatency() {
  const ScaleWorkload w = MakeScale();
  KeyedStoreConfig cfg;
  cfg.epsilon = kEpsilon;
  cfg.window_len = w.window;
  cfg.max_keys = w.keys;
  KeyedCounterStore store(cfg);

  LatencySampler lat(/*stride=*/128);
  Timer timer;
  for (uint64_t i = 0; i < w.events; ++i) {
    const uint64_t key = 1 + (i % w.keys);
    const Timestamp ts = 1 + i;
    if (lat.ShouldSample()) {
      Timer op;
      store.Add(key, ts);
      lat.Record(op.ElapsedSeconds() * 1e9);
    } else {
      store.Add(key, ts);
    }
  }
  const double secs = timer.ElapsedSeconds();
  const double rate = static_cast<double>(w.events) / secs;
  const LatencyStats stats = lat.Stats();

  RecordBenchResult("keyed/1m/add-throughput", rate,
                    static_cast<double>(store.MemoryBytes()), stats);
  PrintHeader("keyed store adds @ " + std::to_string(w.keys) + " live keys",
              {"live_keys", "adds_per_sec", "p50_ns", "p99_ns"});
  PrintRow({FormatDouble(static_cast<double>(store.LiveKeys()), 0),
            FormatDouble(rate, 0), FormatDouble(stats.p50_ns, 0),
            FormatDouble(stats.p99_ns, 0)});
}

// Fills a fresh store through `fill` and records its footprint per live
// key: a real allocator delta around the store's lifetime, or the store's
// own accounting where mallinfo2 is unavailable.
template <typename Fill>
void RecordStoreFootprint(const char* row, const std::string& title,
                          const KeyedStoreConfig& cfg, Fill fill) {
  const size_t heap0 = HeapBytes();
  KeyedCounterStore store(cfg);
  fill(store);
  const size_t heap1 = HeapBytes();

  const double live = static_cast<double>(store.LiveKeys());
  const double heap_delta = static_cast<double>(heap1 - heap0);
  const double per_key =
      (heap1 > heap0 ? heap_delta : static_cast<double>(store.MemoryBytes())) /
      live;
  RecordBenchResult(row, live, per_key);
  PrintHeader(title, {"live_keys", "heap_per_key", "accounted_per_key"});
  PrintRow({FormatDouble(live, 0), FormatBytes(per_key),
            FormatBytes(static_cast<double>(store.MemoryBytes()) / live)});
}

// Steady-state footprint pass: per-key event bursts (arrival locality).
void RunStoreMemory() {
  const ScaleWorkload w = MakeScale();
  KeyedStoreConfig cfg;
  cfg.epsilon = kEpsilon;
  cfg.window_len = w.window;
  cfg.max_keys = w.keys;
  RecordStoreFootprint(
      "keyed/1m/mem-per-key",
      "keyed store footprint @ " + std::to_string(w.keys) + " live keys", cfg,
      [&](KeyedCounterStore& store) {
        Timestamp ts = 0;
        for (uint64_t k = 1; k <= w.keys; ++k) {
          for (int j = 0; j < 3; ++j) store.Add(k, ++ts);
        }
      });
}

// Small-store footprint pass: a fixed population (no --smoke scaling; it
// runs in milliseconds) whose keys see 1 to 1201 arrivals each.
void RunSmallStoreMemory() {
  constexpr uint64_t kKeys = 300;
  KeyedStoreConfig cfg;
  cfg.epsilon = kEpsilon;
  cfg.window_len = 1ULL << 40;  // nothing expires
  cfg.max_keys = 2048;
  RecordStoreFootprint(
      "keyed/small/mem-per-key",
      "keyed store footprint @ " + std::to_string(kKeys) +
          " live keys, budget " + std::to_string(cfg.max_keys),
      cfg, [](KeyedCounterStore& store) {
        Timestamp ts = 0;
        for (uint64_t k = 0; k < kKeys; ++k) {
          const uint64_t arrivals = 1 + (k * k * 7919) % 1201;
          for (uint64_t j = 0; j < arrivals; ++j) store.Add(k + 1, ++ts);
        }
      });
}

// Conservative under-estimate used only when mallinfo2 is unavailable:
// rb-node + key + shared_ptr control block, no malloc chunk overhead.
constexpr double kNodeOverhead = 40.0 + 8.0 + 16.0 + 24.0;

// The shape this store replaces (ISSUE/README motivation): SAM keeps one
// heap-allocated EH per key behind `std::map<string, shared_ptr<EH>>`.
// Keys are per-flow tuple strings ("src:port->dst:port"), which outgrow
// SSO — four allocations per key before the first bucket.
void RunNaiveSamReference() {
  const ScaleWorkload w = MakeScale();
  double per_key;
  double rate;
  size_t population;
  {
    const size_t heap0 = HeapBytes();
    std::map<std::string, std::shared_ptr<ExponentialHistogram>> naive;
    char buf[64];
    Timer timer;
    Timestamp ts = 0;
    for (uint64_t key = 1; key <= w.keys; ++key) {
      std::snprintf(buf, sizeof(buf), "10.%u.%u.%u:%u->192.0.2.%u:443",
                    unsigned(key >> 24 & 255), unsigned(key >> 16 & 255),
                    unsigned(key >> 8 & 255), unsigned(key & 65535),
                    unsigned(key & 255));
      auto it = naive.find(buf);
      if (it == naive.end()) {
        it = naive
                 .emplace(buf, std::shared_ptr<ExponentialHistogram>(
                                   new ExponentialHistogram(
                                       {kEpsilon, w.window})))
                 .first;
      }
      for (int j = 0; j < 3; ++j) it->second->Add(++ts);
    }
    const double secs = timer.ElapsedSeconds();
    const size_t heap1 = HeapBytes();
    population = naive.size();
    rate = static_cast<double>(w.events) / secs;
    if (heap1 > heap0) {
      per_key = static_cast<double>(heap1 - heap0) /
                static_cast<double>(population);
    } else {
      double bytes = 0.0;
      for (const auto& [key, eh] : naive) {
        bytes += kNodeOverhead + 32.0 + static_cast<double>(key.capacity()) +
                 static_cast<double>(eh->MemoryBytes());
      }
      per_key = bytes / static_cast<double>(population);
    }
  }
  RecordBenchResult("keyed/1m/mem-per-key-naive", rate, per_key);
  PrintHeader("naive map<string, shared_ptr<EH>> (SAM shape)",
              {"keys", "adds_per_sec", "mem_per_key"});
  PrintRow({FormatDouble(static_cast<double>(population), 0),
            FormatDouble(rate, 0), FormatBytes(per_key)});
}

// Hash-keyed variant of the naive shape: what a minimal port to uint64
// keys would cost, with the same map-of-shared_ptr structure.
void RunNaiveU64Reference() {
  const ScaleWorkload w = MakeScale();
  double per_key;
  double rate;
  size_t population;
  {
    const size_t heap0 = HeapBytes();
    std::map<uint64_t, std::shared_ptr<ExponentialHistogram>> naive;
    Timer timer;
    Timestamp ts = 0;
    for (uint64_t key = 1; key <= w.keys; ++key) {
      auto it = naive.find(key);
      if (it == naive.end()) {
        it = naive
                 .emplace(key, std::shared_ptr<ExponentialHistogram>(
                                   new ExponentialHistogram(
                                       {kEpsilon, w.window})))
                 .first;
      }
      for (int j = 0; j < 3; ++j) it->second->Add(++ts);
    }
    const double secs = timer.ElapsedSeconds();
    const size_t heap1 = HeapBytes();
    population = naive.size();
    rate = static_cast<double>(w.events) / secs;
    if (heap1 > heap0) {
      per_key = static_cast<double>(heap1 - heap0) /
                static_cast<double>(population);
    } else {
      double bytes = 0.0;
      for (const auto& [key, eh] : naive) {
        bytes += kNodeOverhead + static_cast<double>(eh->MemoryBytes());
      }
      per_key = bytes / static_cast<double>(population);
    }
  }
  RecordBenchResult("keyed/1m/mem-per-key-naive-u64", rate, per_key);
  PrintHeader("naive map<uint64, shared_ptr<EH>> reference",
              {"keys", "adds_per_sec", "mem_per_key"});
  PrintRow({FormatDouble(static_cast<double>(population), 0),
            FormatDouble(rate, 0), FormatBytes(per_key)});
}

// Rotating hot set through the sketch-guarded admission gate: most mass
// sits on a few thousand hot ranks, but their identity drifts, so the
// store must keep admitting the new hot keys and shedding the cold ones.
void RunAdmission() {
  const uint64_t window = 1 << 16;
  auto sketch = KeyedCounterStore::Sketch::Create(
      0.1, 0.1, WindowMode::kTimeBased, window, /*seed=*/7);
  if (!sketch.ok()) {
    std::fprintf(stderr, "sketch config: %s\n",
                 sketch.status().ToString().c_str());
    return;
  }
  KeyedStoreConfig cfg;
  cfg.epsilon = kEpsilon;
  cfg.window_len = window;
  cfg.admit_threshold = 16.0;
  cfg.max_keys = 1 << 17;
  KeyedCounterStore store(cfg, &*sketch);

  const uint64_t events = ScaledEvents(4'000'000);
  RotatingZipf zipf(/*n=*/10'000'000, /*skew=*/1.1,
                    /*shift_every=*/std::max<uint64_t>(events / 16, 1),
                    /*stride=*/7919);
  Rng rng(0xBEC5);
  Timer timer;
  for (uint64_t i = 0; i < events; ++i) {
    const uint64_t key = zipf.Sample(rng);
    const Timestamp ts = 1 + i / 4;  // ~4 events per tick
    sketch->Add(key, ts);
    store.Add(key, ts);
  }
  const double secs = timer.ElapsedSeconds();
  const KeyedStoreStats& st = store.stats();
  const double hit_rate =
      100.0 * static_cast<double>(st.exact_events) /
      static_cast<double>(st.events_total ? st.events_total : 1);
  RecordBenchResult("keyed/1m/admission-hit-rate", hit_rate,
                    static_cast<double>(store.LiveKeys()));
  PrintHeader("sketch-guarded admission, rotating hot set",
              {"events_per_sec", "hit_rate_pct", "live_keys", "admissions",
               "evictions"});
  PrintRow({FormatDouble(static_cast<double>(events) / secs, 0),
            FormatDouble(hit_rate, 2),
            FormatDouble(static_cast<double>(store.LiveKeys()), 0),
            FormatDouble(static_cast<double>(st.admissions), 0),
            FormatDouble(static_cast<double>(st.evictions), 0)});
}

}  // namespace
}  // namespace ecm::bench

int main(int argc, char** argv) {
  ecm::bench::ParseBenchArgs(argc, argv);
  ecm::bench::RunAddLatency();
  ecm::bench::RunStoreMemory();
  ecm::bench::RunSmallStoreMemory();
  ecm::bench::RunNaiveSamReference();
  ecm::bench::RunNaiveU64Reference();
  ecm::bench::RunAdmission();
  return 0;
}
