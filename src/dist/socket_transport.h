// Real TCP wire transport for the distributed runtime (§5–§6 deployment
// path): the socket-backed Transport the dist/transport.h seam was built
// for. Where LoopbackTransport only charges NetworkStats, SocketTransport
// ships the actual dist/serialize bytes between processes:
//
//   site process                         coordinator process
//   ------------                         -------------------
//   SocketTransport::Connect  --TCP-->   CoordinatorServer::Start
//     kHello (node id, epoch)              per-site liveness registry
//     kSketch / kBlob payloads             frame handler (merge, store)
//     kHeartbeat when idle                 heartbeat-timeout sweeper
//     kDone (final snapshot)               down / rejoin tracking
//
// Framing: every message crosses the wire as one length-prefixed frame —
// fixed header (magic 'ECMF', type, from, to, sequence number, payload
// length) followed by the payload, with an FNV-1a checksum over header
// fields and payload. The decoder is incremental (feed arbitrary byte
// slices) and rejects corrupt input without crashing or allocating from
// hostile length fields: oversized lengths, bad magic and checksum
// mismatches all surface as StatusCode::kCorruption, and the sketch
// payloads themselves re-verify under dist/serialize's own checksum.
//
// Sending is asynchronous and batched: Send() enqueues an encoded frame
// and returns; a dedicated sender thread coalesces queued frames into
// large writes. The queue is bounded — when more than
// Options::max_queue_bytes are in flight, Send() blocks until the sender
// drains (backpressure instead of unbounded buffering). When the sender
// has been idle for Options::heartbeat_period_ms, it emits a kHeartbeat
// frame so the coordinator's liveness sweeper sees quiet-but-alive sites.
//
// Accounting: NetworkStats stays the single currency of PR 5 — stats()
// counts exactly the application payload bytes passed to Send()/
// SendPayload(), never framing overhead or control frames (hello,
// heartbeat), so a socket run of a propagation script reports the same
// NetworkStats as a loopback run of the same script. The physical volume
// (framing + control included) is available separately as wire_bytes().

#ifndef ECM_DIST_SOCKET_TRANSPORT_H_
#define ECM_DIST_SOCKET_TRANSPORT_H_

#include <sys/socket.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/dist/fault.h"
#include "src/dist/network_stats.h"
#include "src/dist/transport.h"
#include "src/util/result.h"

namespace ecm {

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// What a frame carries. Control frames (hello, heartbeat) are free in
/// the NetworkStats currency; payload frames are charged at payload size.
enum class FrameType : uint8_t {
  kHello = 1,      ///< first frame of a connection: announces node + epoch
  kHeartbeat = 2,  ///< liveness beacon (empty payload)
  kSketch = 3,     ///< serialized EcmSketch snapshot (dist/serialize bytes)
  kVector = 4,     ///< statistics vector (geometric-monitor sync)
  kBlob = 5,       ///< opaque payload of a Transport::Send
  kDone = 6,       ///< site finished its shard; payload = final snapshot
  kSketchDelta = 7,  ///< retired delta image: SketchReceiver rejects it
  kSketchRlz = 8,    ///< reference-compressed image ("ECMZ", dist/compress.h)
};

/// One wire message.
struct Frame {
  FrameType type = FrameType::kBlob;
  NodeId from = 0;
  NodeId to = kCoordinatorNode;
  uint64_t seq = 0;  ///< per-connection sequence number
  std::vector<uint8_t> payload;
};

/// Payloads above this bound are rejected by the decoder before any
/// allocation — a flipped length field cannot request a giant buffer.
inline constexpr size_t kMaxFramePayload = 64u << 20;

/// Fixed frame header size on the wire: magic(4) + type(1) + from(4) +
/// to(4) + seq(8) + payload_len(4) + checksum(8).
inline constexpr size_t kFrameHeaderBytes = 33;

/// Encodes a frame: header (with FNV-1a checksum over the header fields
/// after the magic plus the payload) followed by the payload bytes.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// Incremental frame parser: feed received byte slices of any size,
/// then drain complete frames with Next(). Corruption (bad magic,
/// oversized length, checksum mismatch) is sticky: the stream cannot be
/// resynchronized and every later Next() fails too.
class FrameDecoder {
 public:
  /// Appends received bytes to the internal buffer.
  void Feed(const uint8_t* data, size_t size);

  /// Extracts the next complete frame. Returns an empty optional when
  /// more bytes are needed, or kCorruption on malformed input.
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  bool corrupt_ = false;
};

// ---------------------------------------------------------------------------
// Site side: SocketTransport
// ---------------------------------------------------------------------------

/// TCP-backed Transport: connects to a CoordinatorServer and ships real
/// frames with async batched sends and bounded-queue backpressure. All
/// send entry points are thread-safe (ParallelIngest workers may share
/// one transport); the Transport::Send override never blocks the caller
/// beyond the backpressure bound and records failures in status().
class SocketTransport final : public Transport {
 public:
  struct Options {
    size_t max_queue_bytes = 8u << 20;    ///< backpressure bound (bytes)
    size_t max_batch_bytes = 256u << 10;  ///< coalescing cap per write
    uint64_t heartbeat_period_ms = 250;   ///< 0 disables idle heartbeats
    int connect_attempts = 40;            ///< dials while the server boots
    /// Exponential-backoff schedule with deterministic jitter, shared by
    /// the initial Connect() dial loop and in-transport reconnects
    /// (replaces the old fixed connect_retry_ms sleep).
    BackoffPolicy backoff{/*initial_ms=*/10, /*max_ms=*/1000,
                          /*multiplier=*/2.0, /*jitter=*/0.2, /*seed=*/1};
    /// Reconnect dials per outage before the transport gives up with a
    /// sticky kUnavailable. 0 disables in-transport reconnection (a
    /// retryable write failure is then terminal, the pre-PR-9 behavior).
    int reconnect_attempts = 8;
    uint32_t epoch = 1;  ///< announced in kHello; > 1 flags a rejoin
    /// Optional deterministic fault schedule, applied through a
    /// FaultInjector (dist/fault.h) to outgoing application frames only
    /// (never kHello/kHeartbeat/kDone), indexed under this transport's
    /// node: drops, byte-identical duplicates (same seq), payload
    /// bit-flips made before framing (the frame checksum passes; the
    /// payload's own checksum must catch them), delay-reordering (a held
    /// frame keeps its seq) and mid-stream connection severs. The same
    /// plan and script inject the same faults as FaultInjectingTransport.
    /// Not owned; may be shared.
    const FaultPlan* fault_plan = nullptr;
  };

  /// Connects to `host:port`, announces `self` with a kHello frame and
  /// starts the sender thread. Retries while the server is still booting.
  static Result<std::unique_ptr<SocketTransport>> Connect(
      const std::string& host, int port, NodeId self,
      const Options& options);

  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Frames `data` as kBlob and ships it.
  void Send(NodeId from, NodeId to, const uint8_t* data,
            size_t size) override;

  /// Typed application send (sketch snapshots, final results). Charged
  /// to NetworkStats at payload size.
  Status SendPayload(FrameType type, NodeId to,
                     std::vector<uint8_t> payload);

  /// Blocks until every queued frame (fault-delayed ones included) has
  /// been written to the socket. `timeout_ms == 0` waits forever;
  /// otherwise returns kDeadlineExceeded when the queue has not drained
  /// in time (retryable: the sender may still be healing the link).
  Status Flush(uint64_t timeout_ms = 0);

  NetworkStats stats() const override;

  /// Physical bytes written: payloads plus framing and control frames.
  uint64_t wire_bytes() const;

  /// First *terminal* send/connection error, OK while healthy. Outages
  /// the reconnect machinery healed (or is still healing) never show
  /// here — only retry exhaustion and fatal classifications stick.
  Status status() const;

  NodeId node() const { return node_; }

  /// Epoch announced in the most recent kHello. Starts at
  /// Options::epoch; every in-transport reconnect re-hellos with the
  /// next epoch, so a caller shipping compressed sketches re-bases its
  /// SketchSender when this advances (see examples/multiproc_runtime).
  uint32_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Successful in-transport reconnects (link outages healed).
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  /// Faults injected so far (all zero without a fault_plan).
  InjectionStats injection_stats() const;

 private:
  /// One queued, already-encoded frame. `sever_after` marks a frame the
  /// fault plan kills the connection behind (after it reaches the wire).
  struct Entry {
    std::vector<uint8_t> bytes;
    bool sever_after = false;
  };

  SocketTransport(int fd, NodeId self, const sockaddr_storage& addr,
                  const Options& options);

  /// Applies the fault plan (when any) and enqueues the frame, blocking
  /// on the backpressure bound.
  Status EnqueueFramed(Frame&& frame);

  /// Enqueues entries verbatim, blocking on the backpressure bound.
  Status EnqueueEntries(std::vector<Entry> entries);

  /// Appends one encoded entry to the send queue (mu_ held).
  void PushLocked(Entry entry);

  /// Moves the frames the fault injector still holds into the send
  /// queue (mu_ held).
  void ReleaseHeldLocked();

  /// Sender-thread main loop: coalesce + write, idle heartbeats,
  /// backoff reconnect on retryable failures.
  void SenderLoop();

  /// Backoff + dial + re-hello under a fresh epoch. Called from the
  /// sender thread with `lk` held; drops it around slow operations.
  Status ReconnectLocked(std::unique_lock<std::mutex>& lk);

  const Options options_;
  const NodeId node_;
  int fd_ = -1;
  sockaddr_storage addr_{};  ///< server address, kept for reconnects

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   ///< signals the sender thread
  std::condition_variable space_cv_;   ///< wakes blocked producers
  std::deque<Entry> queue_;
  size_t queued_bytes_ = 0;
  bool stop_ = false;
  Status error_;  ///< sticky first terminal failure
  uint64_t next_seq_ = 0;
  FaultInjector<Frame> faults_;  ///< used only with Options::fault_plan

  std::atomic<uint64_t> payload_messages_{0};
  std::atomic<uint64_t> payload_bytes_{0};
  std::atomic<uint64_t> wire_bytes_{0};
  std::atomic<uint32_t> epoch_{1};
  std::atomic<uint64_t> reconnects_{0};

  std::thread sender_;
};

// ---------------------------------------------------------------------------
// Coordinator side: CoordinatorServer
// ---------------------------------------------------------------------------

/// Health of one site as seen by the coordinator's liveness tracking.
enum class SiteHealth : uint8_t {
  kNeverSeen = 0,  ///< no kHello received yet
  kUp = 1,         ///< connected and inside the heartbeat window
  kDown = 2,       ///< disconnected or heartbeat-silent past the timeout
};

/// Liveness + progress snapshot of one site.
struct SiteStatus {
  NodeId node = 0;
  SiteHealth health = SiteHealth::kNeverSeen;
  uint32_t epoch = 0;          ///< kHello epoch of the current connection
  uint32_t joins = 0;          ///< connections accepted (>1 means rejoins)
  uint32_t hello_attempts = 0;  ///< kHello frames seen, refused included
  uint64_t frames = 0;         ///< application frames received
  uint64_t payload_bytes = 0;  ///< application payload volume received
  bool done = false;           ///< kDone received on the current epoch
};

/// The liveness predicate of the sweeper, split out pure so the deadline
/// boundary is unit-testable without real clocks: a site is expired only
/// when its silence *strictly exceeds* the timeout — a heartbeat landing
/// exactly at the deadline keeps it alive. timeout_ms == 0 means any
/// nonzero silence downs the site.
inline constexpr bool HeartbeatExpired(uint64_t silent_ms,
                                       uint64_t timeout_ms) {
  return silent_ms > timeout_ms;
}

/// Accepts site connections, decodes frames, tracks per-site liveness
/// (heartbeat timeouts, crash detection via EOF, rejoin epochs) and hands
/// every application frame to a handler. The handler runs on the
/// connection's reader thread; handlers that touch shared state must
/// synchronize (one frame handler call per site is in flight at a time,
/// but different sites' handlers run concurrently).
class CoordinatorServer {
 public:
  struct Options {
    uint64_t heartbeat_timeout_ms = 2000;  ///< silence before kDown
    uint64_t sweep_period_ms = 50;         ///< liveness sweeper cadence
    /// Optional deterministic fault schedule: kHello attempts matching
    /// the plan's hello_refusals are refused (connection closed before
    /// registration) — a coordinator-side partition the site's
    /// reconnect/backoff machinery must outlast. Not owned.
    const FaultPlan* fault_plan = nullptr;
  };

  using FrameHandler = std::function<void(const Frame& frame)>;

  /// Binds `port` (0 picks an ephemeral port, see port()), starts the
  /// accept loop and the liveness sweeper.
  static Result<std::unique_ptr<CoordinatorServer>> Start(
      int port, const Options& options, FrameHandler handler);

  ~CoordinatorServer();

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  /// The bound TCP port.
  int port() const { return port_; }

  /// Current status of every site that ever said hello.
  std::vector<SiteStatus> site_status() const;

  /// Status of one site; kNeverSeen default when unknown.
  SiteStatus site(NodeId node) const;

  /// Received application traffic in the NetworkStats currency.
  NetworkStats stats() const;

  /// Times any site transitioned kUp -> kDown (EOF or heartbeat timeout).
  uint64_t downs() const { return downs_.load(std::memory_order_relaxed); }

  /// Times a site said hello again after a previous connection.
  uint64_t rejoins() const {
    return rejoins_.load(std::memory_order_relaxed);
  }

  /// Connections dropped for malformed frames.
  uint64_t corrupt_streams() const {
    return corrupt_streams_.load(std::memory_order_relaxed);
  }

  /// kHello attempts refused by the fault plan.
  uint64_t hello_refusals() const {
    return hello_refusals_.load(std::memory_order_relaxed);
  }

  /// Stops accepting, closes every connection and joins all threads.
  /// Safe to call more than once; the destructor calls it.
  void Stop();

 private:
  struct Connection;
  struct SiteState;

  CoordinatorServer(int listen_fd, int port, const Options& options,
                    FrameHandler handler);

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void SweeperLoop();

  /// Marks `node` down if currently up and still on join number `join`
  /// (the EOF of a connection a newer hello superseded changes nothing);
  /// counts the transition.
  void MarkDown(NodeId node, uint32_t join);

  const Options options_;
  FrameHandler handler_;
  int listen_fd_ = -1;
  int port_ = 0;

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;  ///< wakes the sweeper on Stop()
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<std::unique_ptr<SiteState>> sites_;
  bool stopping_ = false;

  std::atomic<uint64_t> payload_messages_{0};
  std::atomic<uint64_t> payload_bytes_{0};
  std::atomic<uint64_t> downs_{0};
  std::atomic<uint64_t> rejoins_{0};
  std::atomic<uint64_t> corrupt_streams_{0};
  std::atomic<uint64_t> hello_refusals_{0};

  std::thread acceptor_;
  std::thread sweeper_;
};

/// Builds the kHello payload (epoch as varint) / parses it back.
std::vector<uint8_t> EncodeHelloPayload(uint32_t epoch);
Result<uint32_t> DecodeHelloPayload(const std::vector<uint8_t>& payload);

}  // namespace ecm

#endif  // ECM_DIST_SOCKET_TRANSPORT_H_
