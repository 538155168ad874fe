// Multi-process distributed runtime demo (§5–§6 deployment path, for
// real): one coordinator process and N site processes exchanging
// serialized sketches over TCP through dist/socket_transport.
//
//   $ ./example_multiproc_runtime          # 4 sites, clean run
//   $ ./example_multiproc_runtime --sites 4 --events 80000
//         --kill-site 2 --kill-after 2     # fault injection
//
// The coordinator binds a loopback port, fork/execs itself N times with
// `--role site --node k`, and each site process replays its shard of a
// deterministic SNMP-like trace, pushing full serialized snapshots every
// --sync-every arrivals plus idle heartbeats. The coordinator tracks
// per-site liveness (heartbeat timeout + EOF crash detection) and rejoin
// epochs.
//
// Fault injection: --kill-site k SIGKILLs site k after it has shipped
// --kill-after snapshots, then respawns it with epoch 2. The restarted
// process replays its whole shard from the trace (catch-up) and ships a
// full snapshot on reconnect (resync), so its final state is identical
// to an uninterrupted run.
//
// Self-validation (the CI gate): the coordinator also runs the same
// trace through an in-process loopback Coordinator<EH> and requires the
// socket run's merged estimates to match the loopback run's on a fixed
// query set. Exit code 0 iff everything (including the expected
// down/rejoin transitions) checks out.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/compress.h"
#include "src/dist/runtime.h"
#include "src/dist/serialize.h"
#include "src/dist/socket_transport.h"
#include "src/stream/snmp_like.h"

using namespace ecm;

namespace {

struct Flags {
  std::string role = "coordinator";
  int sites = 4;
  uint64_t events = 60'000;
  uint64_t window = 1u << 15;
  uint64_t sync_every = 2'500;
  int kill_site = -1;     // -1 disables fault injection
  uint64_t kill_after = 2;  // snapshots received before the SIGKILL
  uint64_t push_pause_ms = 50;  // replay pacing after each snapshot push
  uint64_t seed = 7;
  int node = -1;   // site role: which shard
  int port = 0;    // site role: coordinator port
  uint32_t epoch = 1;
  bool compress = false;  // ship RLZ frames instead of full snapshots
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--role") {
      f.role = next();
    } else if (a == "--sites") {
      f.sites = std::atoi(next());
    } else if (a == "--events") {
      f.events = std::strtoull(next(), nullptr, 10);
    } else if (a == "--window") {
      f.window = std::strtoull(next(), nullptr, 10);
    } else if (a == "--sync-every") {
      f.sync_every = std::strtoull(next(), nullptr, 10);
    } else if (a == "--kill-site") {
      f.kill_site = std::atoi(next());
    } else if (a == "--kill-after") {
      f.kill_after = std::strtoull(next(), nullptr, 10);
    } else if (a == "--push-pause-ms") {
      f.push_pause_ms = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seed") {
      f.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--node") {
      f.node = std::atoi(next());
    } else if (a == "--port") {
      f.port = std::atoi(next());
    } else if (a == "--epoch") {
      f.epoch = static_cast<uint32_t>(std::atoi(next()));
    } else if (a == "--compress") {
      f.compress = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      std::exit(2);
    }
  }
  return f;
}

/// The shared deterministic trace: every process regenerates it bit-
/// identically from the seed, so a restarted site can catch up by
/// replaying its shard from the beginning.
std::vector<StreamEvent> MakeTrace(const Flags& f) {
  SnmpConfig sc;
  sc.num_events = f.events;
  sc.num_aps = static_cast<uint32_t>(f.sites);
  sc.seed = f.seed;
  return GenerateSnmpLike(sc);
}

EcmConfig MakeSketchConfig(const Flags& f) {
  auto cfg = EcmConfig::Create(/*epsilon=*/0.1, /*delta=*/0.1,
                               WindowMode::kTimeBased, f.window,
                               /*seed=*/f.seed);
  if (!cfg.ok()) {
    std::fprintf(stderr, "bad sketch config: %s\n",
                 cfg.status().ToString().c_str());
    std::exit(2);
  }
  return *cfg;
}

// ---------------------------------------------------------------------------
// Site process
// ---------------------------------------------------------------------------

int SiteMain(const Flags& f) {
  // Die with the coordinator: orphaned site processes must not outlive a
  // crashed/timed-out demo run in CI.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);

  const EcmConfig cfg = MakeSketchConfig(f);
  std::vector<StreamEvent> shard;
  for (const StreamEvent& e : MakeTrace(f)) {
    if (static_cast<int>(e.node) == f.node) shard.push_back(e);
  }

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 100;
  topt.epoch = f.epoch;
  // Link outages heal inside the transport (backoff dials + fresh-epoch
  // re-hello + retransmit); a push only fails once that machinery has
  // exhausted its attempts, which is terminal for the site.
  topt.reconnect_attempts = 16;
  auto transport = SocketTransport::Connect("127.0.0.1", f.port, f.node, topt);
  if (!transport.ok()) {
    std::fprintf(stderr, "site %d: %s\n", f.node,
                 transport.status().ToString().c_str());
    return 1;
  }

  Site<ExponentialHistogram> site(f.node, cfg);
  // Compressed mode: one sender per (site, coordinator) channel, keyed on
  // the transport's rejoin epoch — polled before every ship, so after an
  // in-transport reconnect the sender re-bases with a full snapshot under
  // the new epoch and an RLZ image encoded against pre-crash state can
  // never poison the coordinator's receiver.
  CompressionOptions copts;
  copts.mode = CompressionMode::kAuto;
  copts.epoch = f.epoch;
  SketchSender<ExponentialHistogram> sender(copts);
  uint32_t channel_epoch = (*transport)->epoch();
  auto push_snapshot = [&]() -> Status {
    if (!f.compress) {
      return (*transport)
          ->SendPayload(FrameType::kSketch, kCoordinatorNode,
                        SerializeSketch(site.sketch()));
    }
    const uint32_t epoch = (*transport)->epoch();
    if (epoch != channel_epoch) {
      channel_epoch = epoch;
      sender.set_epoch(epoch);  // re-base: next image is full
    }
    SketchWireImage img = sender.Ship(site.sketch());
    const FrameType type = img.kind == SketchWireKind::kFull
                               ? FrameType::kSketch
                               : FrameType::kSketchRlz;
    return (*transport)
        ->SendPayload(type, kCoordinatorNode, std::move(img.bytes));
  };
  uint64_t since_sync = 0;
  for (const StreamEvent& e : shard) {
    site.Ingest(e.key, e.ts);
    if (++since_sync >= f.sync_every) {
      since_sync = 0;
      Status s = push_snapshot();
      if (!s.ok()) {
        std::fprintf(stderr, "site %d: push failed terminally: %s\n",
                     f.node, s.ToString().c_str());
        return 1;
      }
      // Pace the replay so a fault injection lands mid-run instead of
      // after an instantaneous replay (real sites stream, not burst).
      if (f.push_pause_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(f.push_pause_ms));
      }
    }
  }
  // Compressed runs ship the final state through the channel too, so the
  // coordinator can check the RLZ chain decodes bit-identically to the
  // kDone full snapshot.
  if (f.compress && !push_snapshot().ok()) return 1;
  Status s = (*transport)
                 ->SendPayload(FrameType::kDone, kCoordinatorNode,
                               SerializeSketch(site.sketch()));
  if (!s.ok()) return 1;
  if (!(*transport)->Flush().ok()) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Coordinator process
// ---------------------------------------------------------------------------

pid_t SpawnSite(const char* exe, const Flags& f, int node, int port,
                uint32_t epoch) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::string events = std::to_string(f.events);
  std::string window = std::to_string(f.window);
  std::string sync_every = std::to_string(f.sync_every);
  std::string pause = std::to_string(f.push_pause_ms);
  std::string seed = std::to_string(f.seed);
  std::string sites = std::to_string(f.sites);
  std::string node_s = std::to_string(node);
  std::string port_s = std::to_string(port);
  std::string epoch_s = std::to_string(epoch);
  std::vector<const char*> argv = {exe,
                                   "--role",
                                   "site",
                                   "--sites",
                                   sites.c_str(),
                                   "--events",
                                   events.c_str(),
                                   "--window",
                                   window.c_str(),
                                   "--sync-every",
                                   sync_every.c_str(),
                                   "--push-pause-ms",
                                   pause.c_str(),
                                   "--seed",
                                   seed.c_str(),
                                   "--node",
                                   node_s.c_str(),
                                   "--port",
                                   port_s.c_str(),
                                   "--epoch",
                                   epoch_s.c_str()};
  if (f.compress) argv.push_back("--compress");
  argv.push_back(nullptr);
  ::execv(exe, const_cast<char**>(argv.data()));
  std::perror("execv");
  ::_exit(127);
}

int CoordinatorMain(const Flags& f, const char* exe) {
  const EcmConfig cfg = MakeSketchConfig(f);
  std::vector<StreamEvent> events = MakeTrace(f);

  // Reference: the identical trace through the in-process loopback
  // runtime — per-site sketches fed the same shards in the same order.
  Coordinator<ExponentialHistogram> loopback(f.sites, cfg);
  for (const StreamEvent& e : events) {
    loopback.site(static_cast<int>(e.node)).Ingest(e.key, e.ts);
  }
  auto ref = loopback.CollectAndMerge();
  if (!ref.ok()) {
    std::fprintf(stderr, "loopback merge failed: %s\n",
                 ref.status().ToString().c_str());
    return 1;
  }

  // Coordinator server: store the latest snapshot per site; kDone marks
  // the final one. Compressed runs additionally decode every frame
  // through a per-site SketchReceiver keyed on the connection's rejoin
  // epoch (an epoch bump drops the RLZ base, forcing full resync).
  std::mutex mu;
  std::map<NodeId, std::vector<uint8_t>> final_snapshots;
  std::map<NodeId, uint64_t> snapshots_seen;
  std::map<NodeId, SketchReceiver<ExponentialHistogram>> receivers;
  uint64_t rlz_frames = 0, full_frames = 0;
  uint64_t stale_rejects = 0, decode_failures = 0, chain_mismatches = 0;
  CoordinatorServer* srv = nullptr;  // set right after Start
  CompressionOptions copts;
  copts.mode = CompressionMode::kAuto;
  CoordinatorServer::Options copt;
  copt.heartbeat_timeout_ms = 1'000;
  auto server = CoordinatorServer::Start(
      0, copt, [&](const Frame& frame) {
        std::lock_guard<std::mutex> lk(mu);
        if (frame.type == FrameType::kSketch) ++snapshots_seen[frame.from];
        if (f.compress) {
          SketchWireKind kind;
          switch (frame.type) {
            case FrameType::kSketch:
              kind = SketchWireKind::kFull;
              ++full_frames;
              break;
            case FrameType::kSketchRlz:
              kind = SketchWireKind::kRlz;
              ++rlz_frames;
              ++snapshots_seen[frame.from];
              break;
            default:
              kind = SketchWireKind::kFull;
              break;
          }
          if (frame.type == FrameType::kSketch ||
              frame.type == FrameType::kSketchRlz) {
            auto [it, inserted] = receivers.try_emplace(frame.from, copts);
            SketchReceiver<ExponentialHistogram>& rx = it->second;
            const uint32_t epoch = srv->site(frame.from).epoch;
            if (epoch != rx.epoch()) rx.set_epoch(epoch);
            auto got = rx.Receive(kind, frame.payload.data(),
                                  frame.payload.size());
            if (!got.ok()) {
              if (got.status().code() == StatusCode::kStaleBase) {
                ++stale_rejects;
              } else {
                ++decode_failures;
                std::fprintf(stderr, "site %u frame decode: %s\n",
                             frame.from, got.status().ToString().c_str());
              }
            }
          }
          if (frame.type == FrameType::kDone) {
            // The RLZ chain must have reconstructed exactly the state
            // the site snapshots into kDone.
            auto it = receivers.find(frame.from);
            if (it == receivers.end() || it->second.sketch() == nullptr ||
                SerializeSketch(*it->second.sketch()) != frame.payload) {
              ++chain_mismatches;
              std::fprintf(stderr,
                           "FAIL: site %u RLZ chain != final snapshot\n",
                           frame.from);
            }
          }
        }
        if (frame.type == FrameType::kDone) {
          final_snapshots[frame.from] = frame.payload;
        }
      });
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }
  srv = server->get();
  const int port = (*server)->port();
  std::printf("coordinator listening on 127.0.0.1:%d, spawning %d site "
              "processes (%" PRIu64 " events, sync every %" PRIu64 ")\n",
              port, f.sites, f.events, f.sync_every);

  std::vector<pid_t> pids(static_cast<size_t>(f.sites), -1);
  for (int k = 0; k < f.sites; ++k) {
    pids[static_cast<size_t>(k)] = SpawnSite(exe, f, k, port, 1);
  }

  // Drive the run: inject the kill when requested, wait for all sites to
  // finish, reap children. 90s deadline bounds CI hangs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(90);
  bool killed = false;
  bool respawned = false;
  while (true) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "FAIL: deadline exceeded\n");
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (f.kill_site >= 0 && !killed) {
      uint64_t seen = 0;
      {
        std::lock_guard<std::mutex> lk(mu);
        seen = snapshots_seen[f.kill_site];
      }
      if (seen >= f.kill_after &&
          !(*server)->site(f.kill_site).done) {
        pid_t victim = pids[static_cast<size_t>(f.kill_site)];
        std::printf("injecting fault: SIGKILL site %d (pid %d) after "
                    "%" PRIu64 " snapshots\n",
                    f.kill_site, victim, seen);
        ::kill(victim, SIGKILL);
        ::waitpid(victim, nullptr, 0);
        killed = true;
      }
    }
    if (killed && !respawned) {
      // Let the EOF-driven down-detection land, then restart the site
      // with the next epoch; it replays its shard from the trace.
      if ((*server)->site(f.kill_site).health == SiteHealth::kDown) {
        std::printf("site %d detected down (downs=%" PRIu64 "); "
                    "respawning with epoch 2\n",
                    f.kill_site, (*server)->downs());
        pids[static_cast<size_t>(f.kill_site)] =
            SpawnSite(exe, f, f.kill_site, port, 2);
        respawned = true;
      }
      continue;
    }
    size_t done = 0;
    {
      std::lock_guard<std::mutex> lk(mu);
      done = final_snapshots.size();
    }
    if (done == static_cast<size_t>(f.sites)) break;
  }
  for (int k = 0; k < f.sites; ++k) {
    ::waitpid(pids[static_cast<size_t>(k)], nullptr, 0);
  }

  // Merge the final snapshots exactly like the loopback reference.
  std::vector<EcmSketch<ExponentialHistogram>> remote;
  remote.reserve(static_cast<size_t>(f.sites));
  for (int k = 0; k < f.sites; ++k) {
    std::lock_guard<std::mutex> lk(mu);
    auto sk = DeserializeSketch<ExponentialHistogram>(final_snapshots[k]);
    if (!sk.ok()) {
      std::fprintf(stderr, "FAIL: snapshot of site %d: %s\n", k,
                   sk.status().ToString().c_str());
      return 1;
    }
    remote.push_back(std::move(*sk));
  }
  std::vector<const EcmSketch<ExponentialHistogram>*> ptrs;
  for (const auto& sk : remote) ptrs.push_back(&sk);
  auto merged =
      EcmSketch<ExponentialHistogram>::Merge(ptrs, cfg.epsilon_sw, 0);
  if (!merged.ok()) {
    std::fprintf(stderr, "FAIL: merge: %s\n",
                 merged.status().ToString().c_str());
    return 1;
  }

  // Per-site liveness summary.
  std::printf("\nsite status:\n");
  for (const SiteStatus& st : (*server)->site_status()) {
    std::printf("  site %d: joins=%u epoch=%u frames=%" PRIu64
                " payload=%.1f KB done=%d\n",
                st.node, st.joins, st.epoch, st.frames,
                st.payload_bytes / 1024.0, st.done ? 1 : 0);
  }
  std::printf("downs=%" PRIu64 " rejoins=%" PRIu64 " corrupt=%" PRIu64
              "; received %" PRIu64 " payload frames, %.1f KB\n",
              (*server)->downs(), (*server)->rejoins(),
              (*server)->corrupt_streams(), (*server)->stats().messages,
              (*server)->stats().bytes / 1024.0);

  // The gate: socket-run estimates must equal the loopback run's.
  const Timestamp now = std::max(ref->Now(), merged->Now());
  int mismatches = 0;
  double worst = 0.0;
  for (uint64_t key = 1; key <= 24; ++key) {
    const double want = ref->PointQueryAt(key, f.window, now);
    const double got = merged->PointQueryAt(key, f.window, now);
    const double diff = std::abs(want - got);
    worst = std::max(worst, diff);
    if (diff > 1e-6 * std::max(1.0, std::abs(want))) ++mismatches;
  }
  std::printf("\nloopback vs socket merged estimates: worst |diff| = %g "
              "over 24 point queries\n",
              worst);

  bool ok = mismatches == 0;
  if (f.compress) {
    std::lock_guard<std::mutex> lk(mu);
    std::printf("compression: %llu full, %llu rlz frames; "
                "%llu stale-base rejects\n",
                (unsigned long long)full_frames,
                (unsigned long long)rlz_frames,
                (unsigned long long)stale_rejects);
    if (rlz_frames == 0) {
      std::fprintf(stderr, "FAIL: --compress run shipped no compressed "
                           "frames\n");
      ok = false;
    }
    if (decode_failures > 0) {
      std::fprintf(stderr, "FAIL: %llu compressed frames failed to decode\n",
                   (unsigned long long)decode_failures);
      ok = false;
    }
    if (chain_mismatches > 0) {
      std::fprintf(stderr, "FAIL: %llu sites whose RLZ chain diverged "
                           "from the final snapshot\n",
                   (unsigned long long)chain_mismatches);
      ok = false;
    }
  }
  if (f.kill_site >= 0) {
    const SiteStatus st = (*server)->site(f.kill_site);
    if ((*server)->downs() < 1 || (*server)->rejoins() < 1 ||
        st.joins < 2 || !st.done) {
      std::fprintf(stderr,
                   "FAIL: expected a down + rejoin of site %d "
                   "(downs=%" PRIu64 " rejoins=%" PRIu64 " joins=%u)\n",
                   f.kill_site, (*server)->downs(), (*server)->rejoins(),
                   st.joins);
      ok = false;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %d point-query mismatches\n", mismatches);
  }
  (*server)->Stop();
  std::printf("%s\n", ok ? "OK: multi-process run matches loopback"
                         : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags f = ParseFlags(argc, argv);
  if (f.role == "site") {
    if (f.node < 0 || f.port == 0) {
      std::fprintf(stderr, "site role needs --node and --port\n");
      return 2;
    }
    return SiteMain(f);
  }
  char exe[4096];
  ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 1;
  }
  exe[n] = '\0';
  return CoordinatorMain(f, exe);
}
