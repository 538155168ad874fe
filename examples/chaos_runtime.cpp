// Chaos runtime: the PR-9 acceptance gate for deterministic fault
// injection + in-transport reconnection + graceful degradation.
//
//   $ ./example_chaos_runtime --seed 1
//
// One process, real loopback TCP: N site threads each connect a
// SocketTransport to a CoordinatorServer and replay their shard of a
// deterministic SNMP-like trace, shipping full serialized snapshots
// every --sync-every arrivals. A single seeded FaultPlan is shared by
// every site transport and the server, injecting drops, byte-identical
// duplicates, payload bit-flips, delay-reordering, mid-stream
// connection severs, a one-sided partition window and coordinator-side
// kHello refusals. `--seed` drives the fault schedule ONLY — the trace,
// sketch config and hash seeds are fixed, so the data a clean run and a
// chaotic run must agree on is identical.
//
// While the sites run, the main thread queries a DegradingMergeView
// (policy kServeStaleWithBound, health fed from the server's liveness
// registry) and checks every answer against exact truth computed from
// the trace: |estimate - truth| <= error_bound must hold for every
// mid-outage query. The declared rate ceiling is the trace's true
// per-site per-tick maximum — the bound is honest, not padded.
//
// Exit code 0 iff all of:
//  (a) every link healed in-transport: all site sends/flushes OK, every
//      site reported done, and at least one reconnect actually happened
//      (the run exercised the machinery, it didn't just stay clean);
//  (b) every site's final kDone snapshot is byte-identical to a
//      reference sketch built by replaying its shard locally — severs,
//      drops, duplicates and corruption left no trace in final state;
//  (c) zero bound violations across all queries, and at least one query
//      was answered degraded (the outage windows were really observed);
//  (d) every fault kind the plan gives a nonzero probability injected at
//      least once across the sites (the run tested what it claims).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/degrade.h"
#include "src/dist/fault.h"
#include "src/dist/runtime.h"
#include "src/dist/serialize.h"
#include "src/dist/socket_transport.h"
#include "src/stream/snmp_like.h"
#include "src/window/window_spec.h"

using namespace ecm;

namespace {

struct Flags {
  int sites = 3;
  uint64_t events = 30'000;
  uint64_t sync_every = 200;
  uint64_t push_pause_ms = 12;
  uint64_t seed = 1;  ///< fault-schedule seed; data seeds are fixed
};

/// The trace and sketch are seeded independently of --seed: chaos must
/// not change what the correct answer is.
constexpr uint64_t kTraceSeed = 2003;
constexpr uint64_t kSketchSeed = 7;
constexpr int kQueryKeys = 8;

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--sites") {
      f.sites = std::atoi(next());
    } else if (a == "--events") {
      f.events = static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--sync-every") {
      f.sync_every = static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--push-pause-ms") {
      f.push_pause_ms = static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--seed") {
      f.seed = static_cast<uint64_t>(std::atoll(next()));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      std::exit(2);
    }
  }
  if (f.sites < 2) {
    std::fprintf(stderr, "--sites must be >= 2\n");
    std::exit(2);
  }
  return f;
}

/// Exact per-key truth: sorted arrival timestamps, so the true count of
/// a key in the query window (now - range, now] is two upper_bounds away.
struct Truth {
  std::unordered_map<uint64_t, std::vector<Timestamp>> arrivals;
  uint64_t CountIn(uint64_t key, Timestamp now, uint64_t range) const {
    auto it = arrivals.find(key);
    if (it == arrivals.end()) return 0;
    const auto& ts = it->second;
    return static_cast<uint64_t>(
        std::upper_bound(ts.begin(), ts.end(), now) -
        std::upper_bound(ts.begin(), ts.end(), WindowStart(now, range)));
  }
};

struct SiteOutcome {
  bool ok = false;
  std::string error;
  uint64_t reconnects = 0;
  InjectionStats faults;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags f = ParseFlags(argc, argv);

  // --- Fixed data: trace, shards, truth, workload ceiling -------------
  SnmpConfig sc;
  sc.num_events = f.events;
  sc.num_aps = static_cast<uint32_t>(f.sites);
  sc.seed = kTraceSeed;
  const std::vector<StreamEvent> trace = GenerateSnmpLike(sc);

  std::vector<std::vector<StreamEvent>> shards(
      static_cast<size_t>(f.sites));
  Truth truth;
  Timestamp max_ts = 0;
  std::unordered_map<uint64_t, uint64_t> totals;
  // True per-site per-tick arrival maximum: the honest declared rate
  // ceiling for the degradation bound (no padding, no oracle at query
  // time — it is a workload property, computable before the run).
  std::vector<std::unordered_map<Timestamp, uint64_t>> per_tick(
      static_cast<size_t>(f.sites));
  for (const StreamEvent& e : trace) {
    shards[e.node].push_back(e);
    truth.arrivals[e.key].push_back(e.ts);
    ++totals[e.key];
    max_ts = std::max(max_ts, e.ts);
    ++per_tick[e.node][e.ts];
  }
  for (auto& [key, ts] : truth.arrivals) std::sort(ts.begin(), ts.end());
  double max_rate = 0.0;
  for (const auto& site_ticks : per_tick) {
    for (const auto& [tick, n] : site_ticks) {
      max_rate = std::max(max_rate, static_cast<double>(n));
    }
  }

  // Query the heaviest keys: their estimates move the most, so they are
  // the hardest test of the bound.
  std::vector<std::pair<uint64_t, uint64_t>> by_count(totals.begin(),
                                                      totals.end());
  std::sort(by_count.begin(), by_count.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  std::vector<uint64_t> query_keys;
  for (int i = 0; i < kQueryKeys && i < static_cast<int>(by_count.size());
       ++i) {
    query_keys.push_back(by_count[static_cast<size_t>(i)].first);
  }

  // Window long enough that nothing ever expires: every arrival in a
  // query's range is still held by the sketches.
  auto cfg = EcmConfig::Create(/*epsilon=*/0.05, /*delta=*/0.02,
                               WindowMode::kTimeBased,
                               /*window_len=*/2 * max_ts + 16, kSketchSeed);
  if (!cfg.ok()) {
    std::fprintf(stderr, "bad sketch config: %s\n",
                 cfg.status().ToString().c_str());
    return 2;
  }

  // --- The fault schedule: one plan shared by every transport + server
  FaultPlanConfig fc;
  fc.seed = f.seed;
  fc.drop_p = 0.06;
  fc.duplicate_p = 0.06;
  fc.corrupt_p = 0.06;
  fc.delay_p = 0.06;
  fc.sever_p = 0.10;
  fc.max_delay_frames = 3;
  // One-sided partition: the last site loses its data frames [6, 10) —
  // heartbeats still flow, so the site stays "up" while its snapshots
  // silently age into staleness.
  fc.partitions.push_back({/*node=*/f.sites - 1, /*from_frame=*/6,
                           /*to_frame=*/10});
  // Coordinator-side partition in attempt space: site 1's first two
  // reconnect hellos are refused, so healing its first sever takes the
  // backoff ladder past the refusal window.
  fc.hello_refusals.push_back(
      {/*node=*/1, /*refuse_from=*/1, /*refuse_count=*/2});
  const FaultPlan plan(fc);

  // --- Degrading coordinator view -------------------------------------
  DegradationOptions dopts;
  dopts.policy = DegradationPolicy::kServeStaleWithBound;
  dopts.stale_after = 1'500;  // ~2 push periods of event-clock lag
  dopts.max_rate_per_site = max_rate;
  DegradingMergeView<ExponentialHistogram> view(dopts);
  for (int k = 0; k < f.sites; ++k) view.SetHealth(k, false);

  std::mutex mu;
  std::map<NodeId, std::vector<uint8_t>> final_snapshots;
  uint64_t decode_failures = 0;  // corrupt images the checksum rejected
  uint64_t snapshots_applied = 0;

  CoordinatorServer::Options copt;
  copt.heartbeat_timeout_ms = 400;
  copt.sweep_period_ms = 25;
  copt.fault_plan = &plan;
  auto server = CoordinatorServer::Start(
      0, copt, [&](const Frame& frame) {
        if (frame.type != FrameType::kSketch &&
            frame.type != FrameType::kDone) {
          return;
        }
        Status s = view.UpdateSerialized(frame.from, frame.payload.data(),
                                         frame.payload.size());
        std::lock_guard<std::mutex> lk(mu);
        if (!s.ok()) {
          // A fault-plan bit flip: frame checksum passed (the flip
          // happened before framing), the sketch image checksum did
          // not. Keep the last good snapshot; never apply garbage.
          ++decode_failures;
          return;
        }
        ++snapshots_applied;
        if (frame.type == FrameType::kDone) {
          final_snapshots[frame.from] = frame.payload;
        }
      });
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 server.status().ToString().c_str());
    return 2;
  }
  const int port = (*server)->port();
  std::printf(
      "chaos: %d sites, %" PRIu64 " events, fault seed %" PRIu64
      " (drop/dup/corrupt/delay %.0f%%, sever %.0f%%), port %d\n",
      f.sites, f.events, f.seed, fc.drop_p * 100, fc.sever_p * 100, port);

  // --- Site threads ----------------------------------------------------
  std::vector<SiteOutcome> outcomes(static_cast<size_t>(f.sites));
  std::vector<std::thread> threads;
  for (int k = 0; k < f.sites; ++k) {
    threads.emplace_back([&, k] {
      SiteOutcome& out = outcomes[static_cast<size_t>(k)];
      SocketTransport::Options topt;
      topt.heartbeat_period_ms = 50;
      topt.reconnect_attempts = 64;
      topt.backoff = BackoffPolicy{/*initial_ms=*/5, /*max_ms=*/100,
                                   /*multiplier=*/2.0, /*jitter=*/0.2,
                                   /*seed=*/f.seed * 1000 +
                                       static_cast<uint64_t>(k)};
      topt.fault_plan = &plan;
      auto transport = SocketTransport::Connect("127.0.0.1", port, k, topt);
      if (!transport.ok()) {
        out.error = transport.status().ToString();
        return;
      }
      Site<ExponentialHistogram> site(k, *cfg);
      uint64_t since_sync = 0;
      for (const StreamEvent& e : shards[static_cast<size_t>(k)]) {
        site.Ingest(e.key, e.ts);
        if (++since_sync >= f.sync_every) {
          since_sync = 0;
          Status s = (*transport)
                         ->SendPayload(FrameType::kSketch, kCoordinatorNode,
                                       SerializeSketch(site.sketch()));
          if (!s.ok()) {
            out.error = "push: " + s.ToString();
            return;
          }
          std::this_thread::sleep_for(
              std::chrono::milliseconds(f.push_pause_ms));
        }
      }
      Status s = (*transport)
                     ->SendPayload(FrameType::kDone, kCoordinatorNode,
                                   SerializeSketch(site.sketch()));
      if (s.ok()) s = (*transport)->Flush();
      if (!s.ok()) {
        out.error = "finish: " + s.ToString();
        return;
      }
      out.reconnects = (*transport)->reconnects();
      out.faults = (*transport)->injection_stats();
      out.ok = true;
    });
  }

  // --- Mid-outage query loop -------------------------------------------
  uint64_t queries = 0, degraded_queries = 0, unavailable = 0;
  uint64_t violations = 0;
  double max_utilization = 0.0;  // max |err| / bound over all queries
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool deadline_hit = false;
  while (true) {
    if (std::chrono::steady_clock::now() > deadline) {
      deadline_hit = true;
      break;
    }
    bool all_done = true;
    for (int k = 0; k < f.sites; ++k) {
      const SiteStatus st = (*server)->site(k);
      view.SetHealth(k, st.health == SiteHealth::kUp);
      all_done = all_done && st.done;
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      all_done =
          all_done &&
          final_snapshots.size() == static_cast<size_t>(f.sites);
    }
    if (all_done) break;
    const Timestamp now = view.LatestClock();
    if (now > 0) {
      for (const uint64_t key : query_keys) {
        // The view pins its answer clock at or past `now` (a snapshot
        // may land between LatestClock() and the query), so the truth is
        // taken at the clock the answer reports.
        auto q = view.PointQuery(key, /*range=*/now, now);
        if (!q.ok()) {
          // No serving subset yet (startup, or every site mid-outage):
          // refusing is the honest answer, not a violation.
          ++unavailable;
          continue;
        }
        ++queries;
        if (q->degraded) ++degraded_queries;
        const double exact =
            static_cast<double>(truth.CountIn(key, q->now, /*range=*/now));
        const double err = std::abs(q->estimate - exact);
        if (q->error_bound > 0) {
          max_utilization = std::max(max_utilization, err / q->error_bound);
        }
        if (err > q->error_bound + 1e-6) {
          ++violations;
          std::fprintf(stderr,
                       "FAIL: bound violation key=%" PRIu64 " now=%" PRIu64
                       " est=%.1f exact=%.0f err=%.1f bound=%.1f "
                       "(sketch=%.1f slack=%.1f, %d incl/%d stale/%d excl)\n",
                       key, q->now, q->estimate, exact, err, q->error_bound,
                       q->sketch_error, q->staleness_slack,
                       q->sites_included, q->sites_stale,
                       q->sites_excluded);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  for (std::thread& t : threads) t.join();

  // --- Gate -------------------------------------------------------------
  bool pass = true;
  if (deadline_hit) {
    std::fprintf(stderr, "FAIL: 60s deadline exceeded\n");
    pass = false;
  }
  uint64_t total_reconnects = 0, total_severs = 0, total_drops = 0,
           total_partition_drops = 0, total_dups = 0, total_corrupts = 0,
           total_delays = 0;
  for (int k = 0; k < f.sites; ++k) {
    const SiteOutcome& out = outcomes[static_cast<size_t>(k)];
    if (!out.ok) {
      std::fprintf(stderr, "FAIL: site %d did not finish cleanly: %s\n", k,
                   out.error.c_str());
      pass = false;
      continue;
    }
    total_reconnects += out.reconnects;
    total_severs += out.faults.severs;
    total_drops += out.faults.drops;
    total_partition_drops += out.faults.partition_drops;
    total_dups += out.faults.duplicates;
    total_corrupts += out.faults.corrupts;
    total_delays += out.faults.delays;
  }

  // (b) Final state must be bit-identical to a locally replayed
  // reference — chaos may delay or degrade, never corrupt the outcome.
  for (int k = 0; k < f.sites && pass; ++k) {
    Site<ExponentialHistogram> ref(k, *cfg);
    for (const StreamEvent& e : shards[static_cast<size_t>(k)]) {
      ref.Ingest(e.key, e.ts);
    }
    const std::vector<uint8_t> expect = SerializeSketch(ref.sketch());
    std::lock_guard<std::mutex> lk(mu);
    auto it = final_snapshots.find(k);
    if (it == final_snapshots.end()) {
      std::fprintf(stderr, "FAIL: no final snapshot from site %d\n", k);
      pass = false;
    } else if (it->second != expect) {
      std::fprintf(stderr,
                   "FAIL: site %d final snapshot differs from reference "
                   "(%zu vs %zu bytes)\n",
                   k, it->second.size(), expect.size());
      pass = false;
    }
  }

  if (violations > 0) pass = false;
  if (queries == 0 || degraded_queries == 0) {
    std::fprintf(stderr,
                 "FAIL: run observed no degraded queries "
                 "(%" PRIu64 " queries total) — outage windows missed\n",
                 queries);
    pass = false;
  }
  // (d) Partition drops come from the window, not from drop_p.
  const struct {
    const char* kind;
    double p;
    uint64_t injected;
  } kinds[] = {{"drop", fc.drop_p, total_drops - total_partition_drops},
               {"duplicate", fc.duplicate_p, total_dups},
               {"corrupt", fc.corrupt_p, total_corrupts},
               {"delay", fc.delay_p, total_delays},
               {"sever", fc.sever_p, total_severs}};
  for (const auto& k : kinds) {
    if (k.p > 0 && k.injected == 0) {
      std::fprintf(stderr,
                   "FAIL: %s_p = %.2f but no %s fault was injected\n",
                   k.kind, k.p, k.kind);
      pass = false;
    }
  }
  if (total_reconnects == 0) {
    std::fprintf(stderr,
                 "FAIL: no in-transport reconnects happened — the chaos "
                 "run did not exercise the healing path\n");
    pass = false;
  }

  std::printf(
      "faults injected: drops=%" PRIu64 " (partition %" PRIu64
      ") dups=%" PRIu64 " corrupts=%" PRIu64 " delays=%" PRIu64
      " severs=%" PRIu64 " hello_refusals=%" PRIu64 "\n",
      total_drops, total_partition_drops, total_dups, total_corrupts,
      total_delays, total_severs, (*server)->hello_refusals());
  std::printf("healing: reconnects=%" PRIu64 " downs=%" PRIu64
              " rejoins=%" PRIu64 "\n",
              total_reconnects, (*server)->downs(), (*server)->rejoins());
  {
    std::lock_guard<std::mutex> lk(mu);
    std::printf("coordinator: snapshots_applied=%" PRIu64
                " corrupt_images_rejected=%" PRIu64 "\n",
                snapshots_applied, decode_failures);
  }
  std::printf("queries: %" PRIu64 " answered (%" PRIu64 " degraded, %" PRIu64
              " refused), violations=%" PRIu64
              ", max |err|/bound = %.3f\n",
              queries, degraded_queries, unavailable, violations,
              max_utilization);
  std::printf("%s\n", pass ? "PASS: healed, exact final state, every bound "
                             "honest"
                           : "FAIL");
  return pass ? 0 : 1;
}
