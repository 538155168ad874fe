// The shared distributed runtime (§5–§6): one Site/Coordinator/Transport
// substrate under every distributed structure in the repo. The scheduled
// propagator and both geometric monitors each run on a Coordinator, and
// the aggregation tree is its AggregateUp view.
//
//  * Site<Counter>      — one observation point (dist/site.h): a
//    counter-generic EcmSketch with per-arrival and batched ingest.
//    Exactly one ParallelIngest worker ever touches a site, so sites
//    need no locks.
//  * Coordinator<Counter> — owns the sites, one compression channel per
//    site, and the global views: flat collect-and-merge (§5.3) and
//    balanced-tree aggregation (§5.1), both shipping through the
//    Transport.
//  * ParallelIngest     — the sharded multi-threaded ingest driver: one
//    worker per site shard (site s belongs to shard s mod workers),
//    per-shard event batches, and a sync barrier on which all workers
//    quiesce whenever any site demands a global synchronization (the
//    geometric monitors' local-violation path). Between barriers workers
//    only touch their own sites, so the whole drive is data-race-free by
//    construction; the barrier's mutex provides the happens-before edges
//    for the coordinator's cross-site reads.

#ifndef ECM_DIST_RUNTIME_H_
#define ECM_DIST_RUNTIME_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/aggregation_tree.h"
#include "src/dist/compress.h"
#include "src/dist/serialize.h"
#include "src/dist/site.h"
#include "src/dist/transport.h"
#include "src/stream/event.h"
#include "src/stream/generators.h"
#include "src/util/result.h"

namespace ecm {

/// The coordinator of one distributed run: owns `num_sites` sites and
/// produces global views by shipping their sketches over the Transport.
/// Pass a shared Transport to charge several substrates into one
/// NetworkStats currency; with none, the coordinator owns a loopback.
///
/// Every site has a sender/receiver channel pair (dist/compress.h), the
/// one path a sketch takes to the coordinator: `compression` picks the
/// images the senders ship (default kFull: full SerializeSketch
/// snapshots), and the coordinator's views are built from the
/// receiver-decoded sketches — the exact state a remote coordinator
/// reconstructs, verified bit-identical to the full images.
template <SlidingWindowCounter Counter>
class Coordinator {
 public:
  Coordinator(int num_sites, const EcmConfig& config,
              Transport* transport = nullptr,
              const CompressionOptions& compression = {CompressionMode::kFull})
      : config_(config), transport_(transport) {
    if (!transport_) {
      owned_transport_ = std::make_unique<LoopbackTransport>();
      transport_ = owned_transport_.get();
    }
    sites_.reserve(static_cast<size_t>(num_sites));
    channels_.reserve(static_cast<size_t>(num_sites));
    for (int i = 0; i < num_sites; ++i) {
      sites_.emplace_back(i, config_);
      channels_.emplace_back(compression);
    }
  }

  int num_sites() const { return static_cast<int>(sites_.size()); }
  Site<Counter>& site(int i) { return sites_[static_cast<size_t>(i)]; }
  const Site<Counter>& site(int i) const {
    return sites_[static_cast<size_t>(i)];
  }
  const EcmConfig& config() const { return config_; }
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }

  /// Aggregated sender-side accounting of the per-site channels.
  CompressionStats compression_stats() const {
    CompressionStats total;
    for (const Channel& ch : channels_) total += ch.sender.stats();
    return total;
  }

  /// Ships site `site`'s sketch through its channel and returns the
  /// decoded sketch the receiver now holds (valid until the site's next
  /// Ship). A stale-base rejection — e.g. the first image after a
  /// channel reset — resyncs once with a full snapshot. Touches only
  /// this site's sketch and channel plus the thread-safe Transport, so
  /// the ParallelIngest worker owning the site may call it.
  Result<const EcmSketch<Counter>*> Ship(int site) {
    Channel& ch = channels_[static_cast<size_t>(site)];
    const Site<Counter>& s = sites_[static_cast<size_t>(site)];
    auto send = [&] {
      SketchWireImage img = ch.sender.Ship(s.sketch());
      transport_->Send(s.id(), kCoordinatorNode, img.bytes.data(),
                       img.bytes.size());
      return ch.receiver.Receive(img.kind, img.bytes.data(),
                                 img.bytes.size());
    };
    auto decoded = send();
    if (!decoded.ok() && decoded.status().code() == StatusCode::kStaleBase) {
      ch.sender.Reset();
      decoded = send();
    }
    return decoded;
  }

  /// Flat §5.3 aggregation: Ship every site (n messages), then merge the
  /// decoded sketches order-preservingly with window error parameter
  /// `eps_prime_sw` (defaults to the sites' own ε_sw).
  Result<EcmSketch<Counter>> CollectAndMerge(double eps_prime_sw = -1.0,
                                             uint64_t seed = 0) {
    const double eps = eps_prime_sw > 0.0 ? eps_prime_sw : config_.epsilon_sw;
    std::vector<const EcmSketch<Counter>*> ptrs;
    ptrs.reserve(sites_.size());
    for (int i = 0; i < num_sites(); ++i) {
      auto decoded = Ship(i);
      if (!decoded.ok()) return decoded.status();
      ptrs.push_back(*decoded);
    }
    return EcmSketch<Counter>::Merge(ptrs, eps, seed);
  }

  /// Balanced-binary-tree aggregation (§5.1) over the sites' sketches,
  /// charging every merge transfer through this runtime's Transport.
  Result<AggregationResult<Counter>> AggregateUp(
      double eps_prime_sw = -1.0) const {
    std::vector<const EcmSketch<Counter>*> leaves;
    leaves.reserve(sites_.size());
    for (const auto& s : sites_) leaves.push_back(&s.sketch());
    return AggregateTreePtrs(leaves, eps_prime_sw, transport_);
  }

 private:
  struct Channel {
    explicit Channel(const CompressionOptions& options)
        : sender(options), receiver(options) {}
    SketchSender<Counter> sender;
    SketchReceiver<Counter> receiver;
  };

  EcmConfig config_;
  Transport* transport_;
  std::unique_ptr<Transport> owned_transport_;
  std::vector<Site<Counter>> sites_;
  std::vector<Channel> channels_;  ///< one per site, same index
};

/// The rendezvous point of ParallelIngest: workers drain their shards in
/// batches and, when any of them requests a global sync, all live workers
/// park here; the last arrival runs the sync function exactly once with
/// every other worker quiescent, then releases them.
class IngestBarrier {
 public:
  explicit IngestBarrier(int workers) : active_(workers) {}

  /// Flags that a global sync must run at the next rendezvous. Callable
  /// from any worker, any number of times per round.
  void RequestSync();

  /// True iff a sync has been requested and not yet drained.
  bool sync_pending() const;

  /// Number of sync rounds drained so far.
  uint64_t rounds() const;

  /// Batch-boundary check-in: returns immediately when no sync is
  /// pending; otherwise blocks until every live worker has checked in,
  /// runs `fn` on exactly one of them (all others parked — `fn` may read
  /// and write every site), and releases the round.
  template <typename Fn>
  void DrainIfRequested(Fn&& fn) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!pending_) return;
    const uint64_t gen = generation_;
    ++waiting_;
    while (true) {
      if (waiting_ == active_) {
        fn();
        pending_ = false;
        waiting_ = 0;
        ++generation_;
        ++rounds_;
        cv_.notify_all();
        return;
      }
      cv_.wait(lk);
      if (generation_ != gen) return;  // another worker ran the sync
      // Spurious wake or a worker left: re-check whether we are last.
    }
  }

  /// A worker finished its shard: it stops participating in rendezvous.
  /// Wakes parked workers so the "everyone checked in" condition is
  /// re-evaluated against the reduced head count.
  void Leave();

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int active_;
  int waiting_ = 0;
  bool pending_ = false;
  uint64_t generation_ = 0;
  uint64_t rounds_ = 0;
};

struct ParallelIngestOptions {
  /// Worker threads; <= 0 picks min(num_sites, hardware_concurrency).
  int num_workers = 0;
  /// Events a worker processes between barrier check-ins. Larger batches
  /// amortize synchronization; syncs are deferred to batch boundaries, so
  /// this also bounds the extra detection latency vs sequential ingest.
  size_t batch_size = 512;
  /// Run one final sync after all shards drain (a query barrier: the
  /// coordinator's view then reflects every arrival).
  bool final_sync = true;
};

struct ParallelIngestReport {
  uint64_t events = 0;       ///< arrivals driven
  int workers = 0;           ///< worker threads used
  uint64_t sync_rounds = 0;  ///< barrier drains (incl. the final one)
};

/// Drives `events` through a sharded worker pool: site s belongs to
/// worker s mod workers, each worker replays its sites' arrivals in
/// stream order. `on_event(site, event)` runs on the owning worker and
/// must touch only that site's state; returning true requests a global
/// sync, executed by `on_sync()` at the next barrier rendezvous with
/// every worker quiescent. This is the multi-core ingest path of the
/// distributed benches and examples; single-threaded semantics differ
/// only in sync placement (batch boundaries instead of the triggering
/// arrival).
template <typename OnEvent, typename OnSync>
ParallelIngestReport ParallelIngest(const std::vector<StreamEvent>& events,
                                    int num_sites, OnEvent&& on_event,
                                    OnSync&& on_sync,
                                    const ParallelIngestOptions& options = {}) {
  ParallelIngestReport report;
  report.events = events.size();
  int workers = options.num_workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  workers = std::min(workers, std::max(num_sites, 1));
  report.workers = workers;

  std::vector<std::vector<StreamEvent>> shards =
      ShardByWorker(events, static_cast<uint32_t>(workers));
  const size_t batch = std::max<size_t>(options.batch_size, 1);

  IngestBarrier barrier(workers);
  auto drive = [&](int w) {
    const std::vector<StreamEvent>& shard = shards[static_cast<size_t>(w)];
    size_t i = 0;
    while (i < shard.size()) {
      const size_t end = std::min(i + batch, shard.size());
      bool need_sync = false;
      for (; i < end; ++i) {
        if (on_event(static_cast<int>(shard[i].node), shard[i])) {
          need_sync = true;
        }
      }
      if (need_sync) barrier.RequestSync();
      barrier.DrainIfRequested(on_sync);
    }
    barrier.Leave();
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(drive, w);
  for (auto& t : pool) t.join();
  if (options.final_sync) on_sync();
  report.sync_rounds = barrier.rounds() + (options.final_sync ? 1 : 0);
  return report;
}

}  // namespace ecm

#endif  // ECM_DIST_RUNTIME_H_
