#include "src/dist/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/util/bytes.h"

namespace ecm {
namespace {

using Clock = std::chrono::steady_clock;

// FNV-1a, streamable (same polynomial as dist/serialize's WireChecksum;
// computed incrementally here because a frame checksum spans the header
// fields and the payload without concatenating them).
constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvExtend(uint64_t h, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

constexpr uint8_t kFrameMagic[4] = {'E', 'C', 'M', 'F'};
// Offsets inside the fixed header.
constexpr size_t kChecksummedOffset = sizeof(kFrameMagic);  // type..len
constexpr size_t kLenOffset = 4 + 1 + 4 + 4 + 8;
constexpr size_t kCrcOffset = kLenOffset + 4;
constexpr size_t kChecksummedHeaderBytes = kCrcOffset - kChecksummedOffset;

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kSketchRlz);
}

// Errnos a retry against the same peer can plausibly outlive: the peer
// crashed, the link flapped, or the route blinked. Everything else
// (EBADF, EFAULT, ...) is a local programming/resource error — fatal.
bool RetryableErrno(int err) {
  return err == ECONNRESET || err == EPIPE || err == ECONNREFUSED ||
         err == ETIMEDOUT || err == ENETUNREACH || err == EHOSTUNREACH ||
         err == ENOTCONN;
}

// Writes all of `data` to `fd`, surviving partial writes and EINTR.
// Transient link failures classify as kUnavailable (IsRetryable), so the
// sender loop knows to heal the connection instead of going sticky.
Status WriteAll(int fd, const uint8_t* data, size_t size) {
  if (fd < 0) return Status::Unavailable("socket write: not connected");
  size_t off = 0;
  while (off < size) {
    ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string msg =
          std::string("socket write: ") + std::strerror(errno);
      return RetryableErrno(errno) ? Status::Unavailable(msg)
                                   : Status::IOError(msg);
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

// One blocking dial. Returns the connected fd (TCP_NODELAY set) or -1.
int DialOnce(const sockaddr_storage& addr) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(sockaddr_in)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  ByteWriter w;
  w.Reserve(kFrameHeaderBytes + frame.payload.size());
  w.PutRaw(kFrameMagic, sizeof(kFrameMagic));
  w.PutFixed<uint8_t>(static_cast<uint8_t>(frame.type));
  w.PutFixed<int32_t>(frame.from);
  w.PutFixed<int32_t>(frame.to);
  w.PutFixed<uint64_t>(frame.seq);
  w.PutFixed<uint32_t>(static_cast<uint32_t>(frame.payload.size()));
  uint64_t crc = FnvExtend(kFnvOffset, w.bytes().data() + kChecksummedOffset,
                           kChecksummedHeaderBytes);
  crc = FnvExtend(crc, frame.payload.data(), frame.payload.size());
  w.PutFixed<uint64_t>(crc);
  w.PutRaw(frame.payload.data(), frame.payload.size());
  return w.MoveBytes();
}

void FrameDecoder::Feed(const uint8_t* data, size_t size) {
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (corrupt_) {
    return Status::Corruption("frame stream already corrupt");
  }
  if (buffered() < kFrameHeaderBytes) return std::optional<Frame>{};
  const uint8_t* h = buf_.data() + pos_;
  if (std::memcmp(h, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    corrupt_ = true;
    return Status::Corruption("bad frame magic");
  }
  uint32_t len;
  std::memcpy(&len, h + kLenOffset, sizeof(len));
  if (len > kMaxFramePayload) {
    corrupt_ = true;
    return Status::Corruption("oversized frame payload length");
  }
  if (buffered() < kFrameHeaderBytes + len) return std::optional<Frame>{};
  uint64_t expected;
  std::memcpy(&expected, h + kCrcOffset, sizeof(expected));
  uint64_t crc =
      FnvExtend(kFnvOffset, h + kChecksummedOffset, kChecksummedHeaderBytes);
  crc = FnvExtend(crc, h + kFrameHeaderBytes, len);
  if (crc != expected) {
    corrupt_ = true;
    return Status::Corruption("frame checksum mismatch");
  }
  if (!ValidFrameType(h[kChecksummedOffset])) {
    corrupt_ = true;
    return Status::Corruption("unknown frame type");
  }
  Frame f;
  f.type = static_cast<FrameType>(h[kChecksummedOffset]);
  int32_t from;
  int32_t to;
  std::memcpy(&from, h + 5, sizeof(from));
  std::memcpy(&to, h + 9, sizeof(to));
  std::memcpy(&f.seq, h + 13, sizeof(f.seq));
  f.from = from;
  f.to = to;
  f.payload.assign(h + kFrameHeaderBytes, h + kFrameHeaderBytes + len);
  pos_ += kFrameHeaderBytes + len;
  return std::optional<Frame>{std::move(f)};
}

std::vector<uint8_t> EncodeHelloPayload(uint32_t epoch) {
  ByteWriter w;
  w.PutVarint(epoch);
  return w.MoveBytes();
}

Result<uint32_t> DecodeHelloPayload(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  auto epoch = r.GetVarint();
  if (!epoch.ok()) return epoch.status();
  if (*epoch == 0 || *epoch > UINT32_MAX) {
    return Status::Corruption("hello epoch out of range");
  }
  return static_cast<uint32_t>(*epoch);
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SocketTransport>> SocketTransport::Connect(
    const std::string& host, int port, NodeId self, const Options& options) {
  sockaddr_in addr4{};
  addr4.sin_family = AF_INET;
  addr4.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr4.sin_addr) != 1) {
    return Status::InvalidArgument("SocketTransport: bad IPv4 address " +
                                   host);
  }
  sockaddr_storage addr{};
  std::memcpy(&addr, &addr4, sizeof(addr4));
  int fd = -1;
  const int attempts = options.connect_attempts > 0 ? options.connect_attempts
                                                    : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    fd = DialOnce(addr);
    if (fd >= 0) break;
    if (attempt + 1 < attempts) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          BackoffDelayMs(options.backoff, static_cast<uint32_t>(attempt))));
    }
  }
  if (fd < 0) {
    // Retryable by definition: the server may simply not be up yet.
    return Status::Unavailable("SocketTransport: connect to " + host + ":" +
                               std::to_string(port) + " failed");
  }
  std::unique_ptr<SocketTransport> t(
      new SocketTransport(fd, self, addr, options));
  // First frame of every connection: who we are, and which join this is
  // (epoch > 1 announces a rejoin after a crash/restart).
  Frame hello;
  hello.type = FrameType::kHello;
  hello.from = self;
  hello.payload = EncodeHelloPayload(options.epoch);
  Status s = t->EnqueueFramed(std::move(hello));
  if (!s.ok()) return s;
  return t;
}

SocketTransport::SocketTransport(int fd, NodeId self,
                                 const sockaddr_storage& addr,
                                 const Options& options)
    : options_(options),
      node_(self),
      fd_(fd),
      addr_(addr),
      faults_(options.fault_plan) {
  epoch_.store(options.epoch, std::memory_order_relaxed);
  sender_ = std::thread([this] { SenderLoop(); });
}

SocketTransport::~SocketTransport() {
  // Signal stop *before* draining: the sender keeps writing queued
  // frames while the link is healthy (stop only ends the loop once the
  // queue is empty), but a mid-outage reconnect schedule is interrupted
  // immediately — destruction must never wait out a backoff ladder.
  // Callers that need a guaranteed drain call Flush() themselves first.
  {
    std::lock_guard<std::mutex> lk(mu_);
    ReleaseHeldLocked();
    stop_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  sender_.join();
  if (fd_ >= 0) ::close(fd_);
}

void SocketTransport::Send(NodeId from, NodeId to, const uint8_t* data,
                           size_t size) {
  Frame f;
  f.type = FrameType::kBlob;
  f.from = from;
  f.to = to;
  f.payload.assign(data, data + size);
  payload_messages_.fetch_add(1, std::memory_order_relaxed);
  payload_bytes_.fetch_add(size, std::memory_order_relaxed);
  (void)EnqueueFramed(std::move(f));
}

Status SocketTransport::SendPayload(FrameType type, NodeId to,
                                    std::vector<uint8_t> payload) {
  Frame f;
  f.type = type;
  f.from = node_;
  f.to = to;
  f.payload = std::move(payload);
  payload_messages_.fetch_add(1, std::memory_order_relaxed);
  payload_bytes_.fetch_add(f.payload.size(), std::memory_order_relaxed);
  return EnqueueFramed(std::move(f));
}

Status SocketTransport::EnqueueFramed(Frame&& frame) {
  // Control frames are never faulted: kHello/kHeartbeat carry the
  // liveness protocol itself and kDone is the final-answer frame whose
  // loss would turn an injected fault into silent data loss instead of
  // a healable outage.
  const bool faultable = options_.fault_plan != nullptr &&
                         frame.type != FrameType::kHello &&
                         frame.type != FrameType::kHeartbeat &&
                         frame.type != FrameType::kDone;
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    frame.seq = next_seq_++;
    if (!faultable) {
      out.push_back(Entry{EncodeFrame(frame), false});
    } else {
      // The injector sees the frame before it is encoded: a corrupt
      // flips a payload bit under a valid frame checksum, so the
      // receiver's dist/serialize checksum must catch it. Duplicates and
      // held frames keep the seq assigned above, exactly what a
      // retransmit produces.
      std::vector<FaultInjector<Frame>::Outgoing> sent;
      faults_.Apply(node_, std::move(frame), &sent);
      for (const auto& o : sent) {
        out.push_back(Entry{EncodeFrame(o.message), o.sever_after});
      }
    }
  }
  if (out.empty()) return Status::OK();
  return EnqueueEntries(std::move(out));
}

Status SocketTransport::EnqueueEntries(std::vector<Entry> entries) {
  std::unique_lock<std::mutex> lk(mu_);
  // Backpressure: block while the in-flight volume exceeds the bound.
  space_cv_.wait(lk, [this] {
    return queued_bytes_ <= options_.max_queue_bytes || stop_ ||
           !error_.ok();
  });
  if (!error_.ok()) return error_;
  if (stop_) return Status::IOError("transport stopped");
  for (Entry& e : entries) PushLocked(std::move(e));
  queue_cv_.notify_one();
  return Status::OK();
}

void SocketTransport::PushLocked(Entry entry) {
  queued_bytes_ += entry.bytes.size();
  wire_bytes_.fetch_add(entry.bytes.size(), std::memory_order_relaxed);
  queue_.push_back(std::move(entry));
}

void SocketTransport::ReleaseHeldLocked() {
  std::vector<FaultInjector<Frame>::Outgoing> held;
  faults_.Flush(&held);
  for (const auto& h : held) PushLocked(Entry{EncodeFrame(h.message), false});
  if (!held.empty()) queue_cv_.notify_one();
}

Status SocketTransport::Flush(uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  // Fault-delayed frames are reordered, never lost: a flush point
  // releases all of them.
  ReleaseHeldLocked();
  const auto drained = [this] {
    return (queue_.empty() && queued_bytes_ == 0) || !error_.ok();
  };
  if (timeout_ms == 0) {
    space_cv_.wait(lk, drained);
  } else if (!space_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                                 drained)) {
    return Status::DeadlineExceeded(
        "SocketTransport::Flush: queue not drained within " +
        std::to_string(timeout_ms) + " ms");
  }
  return error_;
}

void SocketTransport::SenderLoop() {
  std::vector<Entry> batch_entries;
  std::vector<uint8_t> batch;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (queue_.empty()) {
      if (stop_) return;
      if (options_.heartbeat_period_ms > 0) {
        const bool woke = queue_cv_.wait_for(
            lk, std::chrono::milliseconds(options_.heartbeat_period_ms),
            [this] { return !queue_.empty() || stop_; });
        if (!woke && error_.ok()) {
          // Idle past the heartbeat period: emit a liveness beacon.
          Frame hb;
          hb.type = FrameType::kHeartbeat;
          hb.from = node_;
          hb.seq = next_seq_++;
          PushLocked(Entry{EncodeFrame(hb), false});
        }
      } else {
        queue_cv_.wait(lk, [this] { return !queue_.empty() || stop_; });
      }
      continue;
    }
    // Coalesce queued frames into one batched write. Entries are kept
    // individually so an unwritten batch can be returned to the queue
    // for retransmission after a reconnect. A sever-fault entry ends
    // its batch: the connection dies right behind that frame.
    batch_entries.clear();
    batch.clear();
    bool sever = false;
    while (!queue_.empty() && batch.size() < options_.max_batch_bytes &&
           !sever) {
      Entry e = std::move(queue_.front());
      queue_.pop_front();
      batch.insert(batch.end(), e.bytes.begin(), e.bytes.end());
      sever = e.sever_after;
      batch_entries.push_back(std::move(e));
    }
    lk.unlock();
    Status s = error_;
    bool wrote = false;
    if (s.ok()) {
      s = WriteAll(fd_, batch.data(), batch.size());
      wrote = s.ok();
      if (wrote && sever) {
        // Injected fault: kill the link mid-stream, after this frame
        // reached the wire. The heal path below takes over.
        ::shutdown(fd_, SHUT_RDWR);
        s = Status::Unavailable("fault injection: connection severed");
      }
    }
    lk.lock();
    if (s.ok()) {
      queued_bytes_ -= std::min(queued_bytes_, batch.size());
      space_cv_.notify_all();
      continue;
    }
    const bool can_retry =
        IsRetryable(s) && options_.reconnect_attempts > 0 && !stop_;
    if (wrote) {
      // The sever batch reached the wire; nothing to retransmit.
      queued_bytes_ -= std::min(queued_bytes_, batch.size());
    } else if (can_retry) {
      // The write failed: the whole batch is still owed. Return it to
      // the queue front (at-least-once delivery; parts of it may have
      // arrived, and receivers absorb such duplicates idempotently).
      for (auto it = batch_entries.rbegin(); it != batch_entries.rend();
           ++it) {
        queue_.push_front(std::move(*it));
      }
    } else {
      queued_bytes_ -= std::min(queued_bytes_, batch.size());
    }
    if (can_retry) {
      Status healed = ReconnectLocked(lk);
      if (healed.ok()) {
        space_cv_.notify_all();
        continue;
      }
      s = healed;
    }
    if (error_.ok()) {
      error_ = s;
      queue_.clear();
      queued_bytes_ = 0;
    }
    space_cv_.notify_all();
  }
}

Status SocketTransport::ReconnectLocked(std::unique_lock<std::mutex>& lk) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  for (int attempt = 0; attempt < options_.reconnect_attempts && !stop_;
       ++attempt) {
    const uint64_t delay_ms =
        BackoffDelayMs(options_.backoff, static_cast<uint32_t>(attempt));
    if (delay_ms > 0) {
      // Interruptible backoff sleep: Stop()/destruction must not wait
      // out the schedule.
      queue_cv_.wait_for(lk, std::chrono::milliseconds(delay_ms),
                         [this] { return stop_; });
    }
    if (stop_) break;
    const sockaddr_storage addr = addr_;
    lk.unlock();
    int fd = DialOnce(addr);
    lk.lock();
    if (stop_) {
      if (fd >= 0) ::close(fd);
      break;
    }
    if (fd < 0) continue;
    // Fresh link: re-announce under the next rejoin epoch *before* any
    // retransmitted traffic, so the coordinator counts the heal as a
    // rejoin and re-keys its compressed channels (SketchSender callers
    // watch epoch() and re-base).
    const uint32_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
    Frame hello;
    hello.type = FrameType::kHello;
    hello.from = node_;
    hello.payload = EncodeHelloPayload(epoch);
    hello.seq = next_seq_++;
    std::vector<uint8_t> encoded = EncodeFrame(hello);
    wire_bytes_.fetch_add(encoded.size(), std::memory_order_relaxed);
    lk.unlock();
    Status hs = WriteAll(fd, encoded.data(), encoded.size());
    lk.lock();
    if (!hs.ok()) {
      ::close(fd);
      continue;
    }
    if (stop_) {
      ::close(fd);
      break;
    }
    fd_ = fd;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  return Status::Unavailable(
      "SocketTransport: reconnect failed after backoff retries");
}

NetworkStats SocketTransport::stats() const {
  NetworkStats s;
  s.messages = payload_messages_.load(std::memory_order_relaxed);
  s.bytes = payload_bytes_.load(std::memory_order_relaxed);
  return s;
}

uint64_t SocketTransport::wire_bytes() const {
  return wire_bytes_.load(std::memory_order_relaxed);
}

Status SocketTransport::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  return error_;
}

InjectionStats SocketTransport::injection_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return faults_.stats();
}

// ---------------------------------------------------------------------------
// CoordinatorServer
// ---------------------------------------------------------------------------

struct CoordinatorServer::Connection {
  int fd = -1;
  NodeId node = kCoordinatorNode;  ///< unknown until kHello
  uint32_t join = 0;  ///< the node's join number this hello registered
  std::thread reader;
};

struct CoordinatorServer::SiteState {
  NodeId node = 0;
  SiteHealth health = SiteHealth::kNeverSeen;
  uint32_t epoch = 0;
  uint32_t joins = 0;
  uint32_t hello_attempts = 0;
  uint64_t frames = 0;
  uint64_t payload_bytes = 0;
  bool done = false;
  uint64_t last_seen_ms = 0;
};

Result<std::unique_ptr<CoordinatorServer>> CoordinatorServer::Start(
    int port, const Options& options, FrameHandler handler) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::IOError(std::string("bind(): ") + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IOError(std::string("listen(): ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::IOError(std::string("getsockname(): ") +
                           std::strerror(errno));
  }
  return std::unique_ptr<CoordinatorServer>(new CoordinatorServer(
      fd, ntohs(bound.sin_port), options, std::move(handler)));
}

CoordinatorServer::CoordinatorServer(int listen_fd, int port,
                                     const Options& options,
                                     FrameHandler handler)
    : options_(options),
      handler_(std::move(handler)),
      listen_fd_(listen_fd),
      port_(port) {
  acceptor_ = std::thread([this] { AcceptLoop(); });
  sweeper_ = std::thread([this] { SweeperLoop(); });
}

CoordinatorServer::~CoordinatorServer() { Stop(); }

void CoordinatorServer::AcceptLoop() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->reader = std::thread([this, raw] { ReaderLoop(raw); });
    connections_.push_back(std::move(conn));
  }
}

void CoordinatorServer::ReaderLoop(Connection* conn) {
  FrameDecoder decoder;
  std::vector<uint8_t> buf(64 * 1024);
  bool clean_done = false;
  while (true) {
    ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or connection error
    decoder.Feed(buf.data(), static_cast<size_t>(n));
    while (true) {
      auto next = decoder.Next();
      if (!next.ok()) {
        // Malformed stream: drop the connection; the site shows as down
        // until it reconnects with a fresh hello.
        corrupt_streams_.fetch_add(1, std::memory_order_relaxed);
        if (conn->node != kCoordinatorNode) {
          MarkDown(conn->node, conn->join);
        }
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
      }
      if (!next->has_value()) break;
      Frame frame = std::move(**next);
      const uint64_t now_ms = NowMs();
      bool is_app_frame = false;
      bool refuse_hello = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        SiteState* st = nullptr;
        for (auto& s : sites_) {
          if (s->node == frame.from) {
            st = s.get();
            break;
          }
        }
        if (frame.type == FrameType::kHello) {
          if (st == nullptr) {
            sites_.push_back(std::make_unique<SiteState>());
            st = sites_.back().get();
            st->node = frame.from;
          }
          // Attempts count refused hellos too — otherwise a refusal
          // window in attempt space could never be retried past.
          const uint32_t attempt = st->hello_attempts++;
          if (options_.fault_plan != nullptr &&
              options_.fault_plan->RefuseHello(frame.from, attempt)) {
            refuse_hello = true;
          } else {
            if (st->joins > 0) {
              // A node we already knew said hello again: crash/rejoin
              // (or reconnect after a dropped link). Its snapshots
              // restart from the new epoch's catch-up resync.
              rejoins_.fetch_add(1, std::memory_order_relaxed);
            }
            auto epoch = DecodeHelloPayload(frame.payload);
            st->epoch = epoch.ok() ? *epoch : st->joins + 1;
            ++st->joins;
            st->health = SiteHealth::kUp;
            st->done = false;
            st->last_seen_ms = now_ms;
            conn->node = frame.from;
            conn->join = st->joins;
          }
        } else {
          is_app_frame = frame.type != FrameType::kHeartbeat;
          // Any traffic proves the connection's announced node is alive,
          // even when the frame's `from` names another node (a shared
          // transport relaying a whole Coordinator's sites).
          for (auto& s : sites_) {
            if (s->node != conn->node) continue;
            s->last_seen_ms = now_ms;
            if (s->health == SiteHealth::kDown) s->health = SiteHealth::kUp;
            break;
          }
          if (is_app_frame && st != nullptr) {
            ++st->frames;
            st->payload_bytes += frame.payload.size();
            if (frame.type == FrameType::kDone) {
              st->done = true;
              clean_done = true;
            }
          }
        }
      }
      if (refuse_hello) {
        // Injected partition: the coordinator refuses this join. The
        // connection dies before registration, so the site's writes
        // fail and its reconnect/backoff machinery keeps retrying until
        // the refusal window has passed.
        hello_refusals_.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
      }
      if (is_app_frame) {
        payload_messages_.fetch_add(1, std::memory_order_relaxed);
        payload_bytes_.fetch_add(frame.payload.size(),
                                 std::memory_order_relaxed);
        if (handler_) handler_(frame);
      }
    }
  }
  // EOF after kDone is a clean exit; anything else is a crash.
  if (conn->node != kCoordinatorNode && !clean_done) {
    MarkDown(conn->node, conn->join);
  }
}

void CoordinatorServer::SweeperLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stopping_) {
    const uint64_t now_ms = NowMs();
    for (auto& s : sites_) {
      if (s->health == SiteHealth::kUp && !s->done &&
          HeartbeatExpired(now_ms - s->last_seen_ms,
                           options_.heartbeat_timeout_ms)) {
        s->health = SiteHealth::kDown;
        downs_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    stop_cv_.wait_for(lk,
                      std::chrono::milliseconds(options_.sweep_period_ms),
                      [this] { return stopping_; });
  }
}

void CoordinatorServer::MarkDown(NodeId node, uint32_t join) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& s : sites_) {
    if (s->node == node && s->joins == join &&
        s->health == SiteHealth::kUp && !s->done) {
      s->health = SiteHealth::kDown;
      downs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::vector<SiteStatus> CoordinatorServer::site_status() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SiteStatus> out;
  out.reserve(sites_.size());
  for (const auto& s : sites_) {
    SiteStatus st;
    st.node = s->node;
    st.health = s->health;
    st.epoch = s->epoch;
    st.joins = s->joins;
    st.hello_attempts = s->hello_attempts;
    st.frames = s->frames;
    st.payload_bytes = s->payload_bytes;
    st.done = s->done;
    out.push_back(st);
  }
  return out;
}

SiteStatus CoordinatorServer::site(NodeId node) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sites_) {
    if (s->node == node) {
      SiteStatus st;
      st.node = s->node;
      st.health = s->health;
      st.epoch = s->epoch;
      st.joins = s->joins;
      st.hello_attempts = s->hello_attempts;
      st.frames = s->frames;
      st.payload_bytes = s->payload_bytes;
      st.done = s->done;
      return st;
    }
  }
  SiteStatus st;
  st.node = node;
  return st;
}

NetworkStats CoordinatorServer::stats() const {
  NetworkStats s;
  s.messages = payload_messages_.load(std::memory_order_relaxed);
  s.bytes = payload_bytes_.load(std::memory_order_relaxed);
  return s;
}

void CoordinatorServer::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  // Unblock accept(): shutdown makes the pending accept fail on Linux.
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& c : connections_) ::shutdown(c->fd, SHUT_RDWR);
  }
  for (auto& c : connections_) {
    if (c->reader.joinable()) c->reader.join();
    ::close(c->fd);
  }
  sweeper_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace ecm
