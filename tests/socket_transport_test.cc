// Tests for the real TCP wire transport (dist/socket_transport.h):
//
//  * frame encode/decode round-trips, incl. byte-at-a-time feeding;
//  * SocketTransport -> CoordinatorServer delivery over 127.0.0.1: real
//    dist/serialize bytes arrive intact and re-deserialize;
//  * liveness: heartbeat keeps a quiet site up, silence past the timeout
//    marks it down, a new hello after a drop counts as a rejoin;
//  * the one-accounting-currency invariant: an identical CollectAndMerge
//    propagation script charges byte-for-byte the same NetworkStats
//    through LoopbackTransport and SocketTransport;
//  * backpressure: the bounded send queue never holds more than the
//    configured volume, yet every frame is eventually delivered.

#include "src/dist/socket_transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "src/dist/compress.h"
#include "src/dist/runtime.h"
#include "src/dist/serialize.h"
#include "src/stream/generators.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 20'000;

EcmConfig SketchCfg(uint64_t seed = 11) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, kWindow,
                               seed);
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

std::vector<StreamEvent> ZipfEvents(size_t n, uint32_t sites,
                                    uint64_t seed) {
  ZipfStream::Config zc;
  zc.domain = 300;
  zc.skew = 1.0;
  zc.num_nodes = sites;
  zc.seed = seed;
  return ZipfStream(zc).Take(n);
}

/// Collects every application frame the server hands out and lets tests
/// block until an expected number arrived.
class FrameSink {
 public:
  void Add(const Frame& frame) {
    std::lock_guard<std::mutex> lk(mu_);
    frames_.push_back(frame);
    cv_.notify_all();
  }

  CoordinatorServer::FrameHandler handler() {
    return [this](const Frame& f) { Add(f); };
  }

  bool WaitForCount(size_t n, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                        [&] { return frames_.size() >= n; });
  }

  std::vector<Frame> frames() const {
    std::lock_guard<std::mutex> lk(mu_);
    return frames_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<Frame> frames_;
};

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// --- Framing --------------------------------------------------------------

TEST(FrameCodecTest, RoundTripsAllFields) {
  Frame f;
  f.type = FrameType::kSketch;
  f.from = 7;
  f.to = kCoordinatorNode;
  f.seq = 123456789;
  f.payload = {1, 2, 3, 250, 0, 42};
  std::vector<uint8_t> wire = EncodeFrame(f);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + f.payload.size());

  FrameDecoder d;
  d.Feed(wire.data(), wire.size());
  auto got = d.Next();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ((*got)->type, FrameType::kSketch);
  EXPECT_EQ((*got)->from, 7);
  EXPECT_EQ((*got)->to, kCoordinatorNode);
  EXPECT_EQ((*got)->seq, 123456789u);
  EXPECT_EQ((*got)->payload, f.payload);

  auto empty = d.Next();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(FrameCodecTest, DecodesByteAtATimeAndBackToBack) {
  Frame a;
  a.type = FrameType::kHello;
  a.from = 1;
  a.payload = EncodeHelloPayload(3);
  Frame b;
  b.type = FrameType::kDone;
  b.from = 1;
  b.seq = 1;
  b.payload.assign(1000, 7);

  std::vector<uint8_t> wire = EncodeFrame(a);
  std::vector<uint8_t> wb = EncodeFrame(b);
  wire.insert(wire.end(), wb.begin(), wb.end());

  FrameDecoder d;
  size_t decoded = 0;
  for (uint8_t byte : wire) {
    d.Feed(&byte, 1);
    while (true) {
      auto got = d.Next();
      ASSERT_TRUE(got.ok());
      if (!got->has_value()) break;
      ++decoded;
      if (decoded == 1) {
        EXPECT_EQ((*got)->type, FrameType::kHello);
        auto epoch = DecodeHelloPayload((*got)->payload);
        ASSERT_TRUE(epoch.ok());
        EXPECT_EQ(*epoch, 3u);
      } else {
        EXPECT_EQ((*got)->type, FrameType::kDone);
        EXPECT_EQ((*got)->payload.size(), 1000u);
      }
    }
  }
  EXPECT_EQ(decoded, 2u);
}

// --- Wire delivery --------------------------------------------------------

TEST(SocketTransportTest, DeliversSerializedSketchesIntact) {
  FrameSink sink;
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  EcmConfig cfg = SketchCfg();
  EcmSketch<ExponentialHistogram> sketch(cfg);
  for (const StreamEvent& e : ZipfEvents(5'000, 1, 99)) {
    sketch.Add(e.key, e.ts);
  }
  std::vector<uint8_t> wire = SerializeSketch(sketch);

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 4, topt);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(
      (*client)->SendPayload(FrameType::kSketch, kCoordinatorNode, wire).ok());
  ASSERT_TRUE((*client)->Flush().ok());

  ASSERT_TRUE(sink.WaitForCount(1));
  std::vector<Frame> frames = sink.frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kSketch);
  EXPECT_EQ(frames[0].from, 4);
  EXPECT_EQ(frames[0].payload, wire);

  // The shipped bytes reconstruct a sketch answering identically.
  auto back = DeserializeSketch<ExponentialHistogram>(frames[0].payload);
  ASSERT_TRUE(back.ok());
  for (uint64_t key = 1; key <= 16; ++key) {
    EXPECT_DOUBLE_EQ(back->PointQueryAt(key, kWindow, sketch.Now()),
                     sketch.PointQueryAt(key, kWindow, sketch.Now()));
  }

  // Server-side accounting saw exactly the payload volume.
  EXPECT_EQ((*server)->stats().messages, 1u);
  EXPECT_EQ((*server)->stats().bytes, wire.size());
  SiteStatus st = (*server)->site(4);
  EXPECT_EQ(st.health, SiteHealth::kUp);
  EXPECT_EQ(st.joins, 1u);
  EXPECT_EQ(st.frames, 1u);
}

// --- Liveness -------------------------------------------------------------

TEST(SocketTransportTest, HeartbeatKeepsQuietSiteUp) {
  FrameSink sink;
  CoordinatorServer::Options copt;
  copt.heartbeat_timeout_ms = 150;
  copt.sweep_period_ms = 20;
  auto server = CoordinatorServer::Start(0, copt, sink.handler());
  ASSERT_TRUE(server.ok());

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 30;  // well inside the timeout
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 1, topt);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(WaitFor(
      [&] { return (*server)->site(1).health == SiteHealth::kUp; }));

  // Quiet for several timeout periods: heartbeats alone keep it up.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ((*server)->site(1).health, SiteHealth::kUp);
  EXPECT_EQ((*server)->downs(), 0u);
}

TEST(SocketTransportTest, SilentSiteTimesOutAndRejoinCounts) {
  FrameSink sink;
  CoordinatorServer::Options copt;
  copt.heartbeat_timeout_ms = 100;
  copt.sweep_period_ms = 10;
  auto server = CoordinatorServer::Start(0, copt, sink.handler());
  ASSERT_TRUE(server.ok());

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;  // no beacons: the site goes silent
  {
    auto client =
        SocketTransport::Connect("127.0.0.1", (*server)->port(), 2, topt);
    ASSERT_TRUE(client.ok());
    // Heartbeat-silence past the timeout marks the site down even while
    // the connection stays open.
    ASSERT_TRUE(WaitFor(
        [&] { return (*server)->site(2).health == SiteHealth::kDown; }));
    EXPECT_GE((*server)->downs(), 1u);
  }

  // Reconnect with the next epoch: counted as a rejoin, health back up.
  // Wait on the monotone rejoin count first. Heartbeats well inside the
  // timeout then keep the rejoined site up, so the health check does not
  // race the sweeper — and they revive the site if the first
  // connection's close is processed after the rejoin and marks it down.
  topt.epoch = 2;
  topt.heartbeat_period_ms = 20;
  auto again =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 2, topt);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(WaitFor([&] { return (*server)->rejoins() == 1; }));
  ASSERT_TRUE(WaitFor(
      [&] { return (*server)->site(2).health == SiteHealth::kUp; }));
  EXPECT_EQ((*server)->rejoins(), 1u);
  SiteStatus st = (*server)->site(2);
  EXPECT_EQ(st.joins, 2u);
  EXPECT_EQ(st.epoch, 2u);
}

// --- One accounting currency ----------------------------------------------

TEST(SocketTransportTest, NetworkStatsMatchesLoopbackOnIdenticalScript) {
  constexpr int kSites = 5;
  EcmConfig cfg = SketchCfg(23);
  std::vector<StreamEvent> events = ZipfEvents(20'000, kSites, 41);

  // Loopback run of the propagation script.
  LoopbackTransport loopback;
  Coordinator<ExponentialHistogram> a(kSites, cfg, &loopback);
  // Socket run of the identical script: same sketches, same pushes, but
  // the serialized payloads really cross a TCP connection.
  FrameSink sink;
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok());
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  auto socket = SocketTransport::Connect("127.0.0.1", (*server)->port(),
                                         kCoordinatorNode, topt);
  ASSERT_TRUE(socket.ok());
  Coordinator<ExponentialHistogram> b(kSites, cfg, socket->get());

  uint64_t pushes = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const StreamEvent& e = events[i];
    const int site = static_cast<int>(e.node % kSites);
    a.site(site).Ingest(e.key, e.ts);
    b.site(site).Ingest(e.key, e.ts);
    if ((i + 1) % 4'000 == 0) {
      ASSERT_TRUE(a.CollectAndMerge().ok());
      ASSERT_TRUE(b.CollectAndMerge().ok());
      pushes += kSites;
    }
  }
  ASSERT_TRUE((*socket)->Flush().ok());

  // Byte-for-byte identical accounting: the invariant from PR 5 holds
  // across transports.
  NetworkStats la = loopback.stats();
  NetworkStats lb = (*socket)->stats();
  EXPECT_EQ(la.messages, lb.messages);
  EXPECT_EQ(la.bytes, lb.bytes);
  EXPECT_EQ(la.messages, pushes);

  // And the receiving side agrees with the sending side.
  ASSERT_TRUE(WaitFor([&] {
    return (*server)->stats().messages == lb.messages;
  }));
  EXPECT_EQ((*server)->stats().bytes, lb.bytes);

  // The physical wire carries framing overhead on top — strictly more
  // than the accounted payload, by exactly one header per frame (hello
  // is control-plane: one extra frame, zero accounted bytes).
  EXPECT_EQ((*socket)->wire_bytes(),
            lb.bytes + (lb.messages + 1) * kFrameHeaderBytes +
                EncodeHelloPayload(1).size());
}

TEST(SocketTransportTest, AggregateUpShipsDecodableSketches) {
  // Every tree transfer carries the child's real wire image: each kBlob
  // the coordinator receives decodes back into a sketch.
  constexpr int kSites = 5;
  EcmConfig cfg = SketchCfg(29);
  FrameSink sink;
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok());
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  auto socket = SocketTransport::Connect("127.0.0.1", (*server)->port(),
                                         kCoordinatorNode, topt);
  ASSERT_TRUE(socket.ok());
  Coordinator<ExponentialHistogram> coord(kSites, cfg, socket->get());
  for (const StreamEvent& e : ZipfEvents(10'000, kSites, 43)) {
    coord.site(static_cast<int>(e.node % kSites)).Ingest(e.key, e.ts);
  }
  auto up = coord.AggregateUp();
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE((*socket)->Flush().ok());

  const size_t transfers = static_cast<size_t>(up->network.messages);
  EXPECT_EQ(transfers, 8u);  // 5 leaves: 2 + 1 + 1 merges
  ASSERT_TRUE(sink.WaitForCount(transfers));
  const std::vector<Frame> frames = sink.frames();
  ASSERT_EQ(frames.size(), transfers);
  uint64_t bytes = 0;
  for (const Frame& f : frames) {
    EXPECT_EQ(f.type, FrameType::kBlob);
    EXPECT_TRUE(DeserializeSketch<ExponentialHistogram>(f.payload).ok());
    bytes += f.payload.size();
  }
  EXPECT_EQ(bytes, up->network.bytes);
}

// --- Hostile wire input ---------------------------------------------------
//
// The serialized-synopsis layer already has its own fuzz sweeps
// (corruption_test.cc); these target the frame layer and the composition
// of the two: no slice of hostile bytes may crash the decoder, allocate
// from a forged length field, or surface as a frame it did not receive.

std::vector<uint8_t> SampleFrameBytes() {
  Frame f;
  f.type = FrameType::kSketch;
  f.from = 2;
  f.seq = 5;
  f.payload.resize(257);
  for (size_t i = 0; i < f.payload.size(); ++i) {
    f.payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  return EncodeFrame(f);
}

TEST(FrameFuzzTest, EveryTruncationIsIncompleteNotCorrupt) {
  std::vector<uint8_t> wire = SampleFrameBytes();
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder d;
    d.Feed(wire.data(), cut);
    auto got = d.Next();
    ASSERT_TRUE(got.ok()) << "prefix " << cut << ": "
                          << got.status().ToString();
    EXPECT_FALSE(got->has_value()) << "prefix " << cut;
  }
}

TEST(FrameFuzzTest, BitFlipsNeverYieldAFrame) {
  std::vector<uint8_t> wire = SampleFrameBytes();
  std::mt19937_64 rng(0xF00D);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bad = wire;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < flips; ++i) {
      bad[rng() % bad.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
    }
    if (bad == wire) continue;
    FrameDecoder d;
    d.Feed(bad.data(), bad.size());
    // A flip in the length field may leave the decoder waiting for bytes
    // that will never come; every other flip must fail the checksum (or
    // magic / type / length-bound check). Neither path yields a frame.
    auto got = d.Next();
    if (got.ok()) {
      EXPECT_FALSE(got->has_value()) << "trial " << trial;
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(FrameFuzzTest, ForgedLengthRejectedBeforeAllocation) {
  std::vector<uint8_t> wire = SampleFrameBytes();
  // Overwrite the payload-length field with a huge value and feed only
  // the header: the decoder must reject at the length-bound check, not
  // wait for (or try to allocate) 4 GB of payload.
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(wire.data() + 21, &huge, sizeof(huge));
  FrameDecoder d;
  d.Feed(wire.data(), kFrameHeaderBytes);
  auto got = d.Next();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(FrameFuzzTest, BadMagicIsStickyCorruption) {
  std::vector<uint8_t> wire = SampleFrameBytes();
  wire[0] ^= 0x40;
  FrameDecoder d;
  d.Feed(wire.data(), wire.size());
  EXPECT_FALSE(d.Next().ok());
  // A pristine frame after the poison does not resynchronize the stream.
  std::vector<uint8_t> good = SampleFrameBytes();
  d.Feed(good.data(), good.size());
  auto again = d.Next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kCorruption);
}

TEST(FrameFuzzTest, UnknownFrameTypeRejectedEvenWithValidChecksum) {
  Frame f;
  f.type = static_cast<FrameType>(200);  // checksummed, but not a type
  f.from = 1;
  f.payload = {1, 2, 3};
  std::vector<uint8_t> wire = EncodeFrame(f);
  FrameDecoder d;
  d.Feed(wire.data(), wire.size());
  auto got = d.Next();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(FrameFuzzTest, RandomGarbageStreamsNeverCrash) {
  std::mt19937_64 rng(0xBEEF);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng() % 512;
    std::vector<uint8_t> junk(n);
    for (auto& b : junk) b = static_cast<uint8_t>(rng());
    FrameDecoder d;
    // Feed in random slice sizes to exercise the incremental path.
    size_t off = 0;
    while (off < junk.size()) {
      const size_t step = 1 + rng() % 64;
      const size_t take = std::min(step, junk.size() - off);
      d.Feed(junk.data() + off, take);
      off += take;
      auto got = d.Next();
      if (!got.ok()) break;  // corrupt and sticky: done with this stream
      if (got->has_value()) {
        // Only a byte-exact valid frame may surface, which random bytes
        // essentially cannot produce; treat it as a failure.
        ADD_FAILURE() << "garbage parsed as a frame in trial " << trial;
        break;
      }
    }
  }
}

TEST(FrameFuzzTest, CorruptSketchPayloadInsideValidFrameIsRejectedDownstream) {
  // Composition: the frame layer checksums transport corruption, the
  // serialize layer checksums application corruption. A frame built
  // around already-corrupt sketch bytes decodes fine — and the payload
  // is then rejected by DeserializeSketch.
  EcmConfig cfg = SketchCfg(31);
  EcmSketch<ExponentialHistogram> sketch(cfg);
  for (const StreamEvent& e : ZipfEvents(2'000, 1, 13)) {
    sketch.Add(e.key, e.ts);
  }
  std::vector<uint8_t> bytes = SerializeSketch(sketch);
  bytes[bytes.size() / 2] ^= 0x10;

  Frame f;
  f.type = FrameType::kSketch;
  f.from = 1;
  f.payload = bytes;
  std::vector<uint8_t> wire = EncodeFrame(f);
  FrameDecoder d;
  d.Feed(wire.data(), wire.size());
  auto got = d.Next();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  auto back = DeserializeSketch<ExponentialHistogram>((*got)->payload);
  EXPECT_FALSE(back.ok());
}

// --- Compressed frames across crash/rejoin epochs ---------------------------

/// Coordinator-side receive endpoint for compressed sketch frames: one
/// SketchReceiver keyed on the site's current kHello rejoin epoch. An
/// epoch change (crash/rejoin) drops the RLZ base, so compressed images
/// stamped with the old epoch reject with kStaleBase and only a fresh
/// full snapshot re-bases the channel.
class CompressedSink {
 public:
  explicit CompressedSink(const CompressionOptions& opts) : receiver_(opts) {}

  CoordinatorServer::FrameHandler handler() {
    return [this](const Frame& f) { Handle(f); };
  }

  void set_server(CoordinatorServer* server) {
    std::lock_guard<std::mutex> lk(mu_);
    server_ = server;
  }

  bool WaitForCount(size_t n, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                        [&] { return outcomes_.size() >= n; });
  }

  std::vector<std::pair<FrameType, StatusCode>> outcomes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return outcomes_;
  }

  std::vector<uint8_t> received_image() const {
    std::lock_guard<std::mutex> lk(mu_);
    const EcmSketch<ExponentialHistogram>* sk = receiver_.sketch();
    return sk ? SerializeSketch(*sk) : std::vector<uint8_t>{};
  }

 private:
  void Handle(const Frame& f) {
    SketchWireKind kind;
    switch (f.type) {
      case FrameType::kSketch:
        kind = SketchWireKind::kFull;
        break;
      case FrameType::kSketchDelta:
        kind = SketchWireKind::kDelta;
        break;
      case FrameType::kSketchRlz:
        kind = SketchWireKind::kRlz;
        break;
      default:
        return;  // control / unrelated traffic
    }
    std::lock_guard<std::mutex> lk(mu_);
    // The connection's kHello epoch is authoritative: a rejoin bumps it,
    // which must invalidate any RLZ base from the previous life.
    const uint32_t epoch = server_->site(f.from).epoch;
    if (epoch != receiver_.epoch()) receiver_.set_epoch(epoch);
    auto got = receiver_.Receive(kind, f.payload.data(), f.payload.size());
    outcomes_.emplace_back(f.type,
                           got.ok() ? StatusCode::kOk : got.status().code());
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  CoordinatorServer* server_ = nullptr;
  SketchReceiver<ExponentialHistogram> receiver_;
  std::vector<std::pair<FrameType, StatusCode>> outcomes_;
};

TEST(SocketTransportTest, RejoinEpochInvalidatesRlzBase) {
  CompressionOptions copts;
  copts.mode = CompressionMode::kAuto;
  CompressedSink sink(copts);
  CoordinatorServer::Options sopt;
  sopt.heartbeat_timeout_ms = 100;
  sopt.sweep_period_ms = 10;
  auto server = CoordinatorServer::Start(0, sopt, sink.handler());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  sink.set_server(server->get());

  EcmConfig cfg = SketchCfg(61);
  EcmSketch<ExponentialHistogram> local(cfg);
  SketchSender<ExponentialHistogram> sender(copts);
  Timestamp ts = 0;
  auto feed = [&](int n, uint64_t seed) {
    for (const StreamEvent& e : ZipfEvents(static_cast<size_t>(n), 1, seed)) {
      local.Add(e.key, ++ts);
    }
  };
  auto ship = [&](SocketTransport* t) {
    SketchWireImage img = sender.Ship(local);
    const FrameType type = img.kind == SketchWireKind::kFull
                               ? FrameType::kSketch
                               : FrameType::kSketchRlz;
    ASSERT_TRUE(t->SendPayload(type, kCoordinatorNode,
                               std::move(img.bytes))
                    .ok());
    ASSERT_TRUE(t->Flush().ok());
  };

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  {
    auto client =
        SocketTransport::Connect("127.0.0.1", (*server)->port(), 9, topt);
    ASSERT_TRUE(client.ok());
    feed(3'000, 71);
    ship(client->get());  // full snapshot primes the channel
    feed(60, 72);
    ship(client->get());  // steady-state RLZ image applies
    ASSERT_TRUE(sink.WaitForCount(2));
    // Site crashes: connection drops, coordinator marks it down.
  }
  ASSERT_TRUE(WaitFor(
      [&] { return (*server)->site(9).health == SiteHealth::kDown; }));

  // Fault injection: the site rejoins under epoch 2 but resumes from its
  // stale pre-crash channel state and immediately ships an RLZ image
  // stamped with the old epoch. The coordinator must refuse it — never a silent
  // merge against the pre-crash base.
  topt.epoch = 2;
  auto again =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 9, topt);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(WaitFor(
      [&] { return (*server)->site(9).epoch == 2; }));
  feed(60, 73);
  ship(again->get());  // stale-epoch RLZ image: must reject
  ASSERT_TRUE(sink.WaitForCount(3));

  // The site learns the new epoch: full-snapshot resync, then RLZ
  // images flow again.
  sender.set_epoch(2);
  ship(again->get());
  feed(60, 74);
  ship(again->get());
  ASSERT_TRUE(sink.WaitForCount(5));

  auto outcomes = sink.outcomes();
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes[0], std::make_pair(FrameType::kSketch, StatusCode::kOk));
  EXPECT_EQ(outcomes[1],
            std::make_pair(FrameType::kSketchRlz, StatusCode::kOk));
  EXPECT_EQ(outcomes[2],
            std::make_pair(FrameType::kSketchRlz, StatusCode::kStaleBase));
  EXPECT_EQ(outcomes[3], std::make_pair(FrameType::kSketch, StatusCode::kOk));
  EXPECT_EQ(outcomes[4],
            std::make_pair(FrameType::kSketchRlz, StatusCode::kOk));
  EXPECT_EQ((*server)->rejoins(), 1u);
  // After the resync the coordinator's decoded state is bit-identical to
  // the site's.
  EXPECT_EQ(sink.received_image(), SerializeSketch(local));
}

TEST(SocketTransportTest, DeltaFrameRejectsWithoutMutation) {
  CompressionOptions copts;
  copts.mode = CompressionMode::kAuto;
  CompressedSink sink(copts);
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  sink.set_server(server->get());

  EcmSketch<ExponentialHistogram> local(SketchCfg(62));
  SketchSender<ExponentialHistogram> sender(copts);
  Timestamp ts = 0;
  auto feed = [&](int n, uint64_t seed) {
    for (const StreamEvent& e : ZipfEvents(static_cast<size_t>(n), 1, seed)) {
      local.Add(e.key, ++ts);
    }
  };
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 4, topt);
  ASSERT_TRUE(client.ok());
  auto send = [&](FrameType type, std::vector<uint8_t> bytes) {
    ASSERT_TRUE(
        (*client)->SendPayload(type, kCoordinatorNode, std::move(bytes)).ok());
    ASSERT_TRUE((*client)->Flush().ok());
  };

  feed(3'000, 75);
  SketchWireImage full = sender.Ship(local);
  ASSERT_EQ(full.kind, SketchWireKind::kFull);
  send(FrameType::kSketch, full.bytes);
  feed(60, 76);
  SketchWireImage rlz = sender.Ship(local);
  ASSERT_EQ(rlz.kind, SketchWireKind::kRlz);
  send(FrameType::kSketchRlz, rlz.bytes);
  ASSERT_TRUE(sink.WaitForCount(2));
  const std::vector<uint8_t> settled = sink.received_image();

  // A delta frame carrying the last applied image's own bytes: neither a
  // duplicate nor an image the receiver can apply.
  send(FrameType::kSketchDelta, rlz.bytes);
  ASSERT_TRUE(sink.WaitForCount(3));
  EXPECT_EQ(sink.received_image(), settled);

  // The RLZ chain continues on the untouched reference.
  feed(60, 77);
  SketchWireImage next = sender.Ship(local);
  ASSERT_EQ(next.kind, SketchWireKind::kRlz);
  send(FrameType::kSketchRlz, next.bytes);
  ASSERT_TRUE(sink.WaitForCount(4));

  auto outcomes = sink.outcomes();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[1],
            std::make_pair(FrameType::kSketchRlz, StatusCode::kOk));
  EXPECT_EQ(outcomes[2].first, FrameType::kSketchDelta);
  EXPECT_NE(outcomes[2].second, StatusCode::kOk);
  EXPECT_EQ(outcomes[3],
            std::make_pair(FrameType::kSketchRlz, StatusCode::kOk));
  EXPECT_EQ(sink.received_image(), SerializeSketch(local));
}

// --- Backpressure ---------------------------------------------------------

TEST(SocketTransportTest, BoundedQueueStillDeliversEverything) {
  FrameSink sink;
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok());

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  topt.max_queue_bytes = 64 * 1024;  // tiny bound: producers must block
  topt.max_batch_bytes = 16 * 1024;
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 3, topt);
  ASSERT_TRUE(client.ok());

  constexpr int kFrames = 200;
  constexpr size_t kPayload = 8 * 1024;
  std::vector<uint8_t> payload(kPayload, 0xAB);
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE((*client)
                    ->SendPayload(FrameType::kBlob, kCoordinatorNode, payload)
                    .ok());
  }
  ASSERT_TRUE((*client)->Flush().ok());
  ASSERT_TRUE(sink.WaitForCount(kFrames));

  std::vector<Frame> frames = sink.frames();
  ASSERT_EQ(frames.size(), static_cast<size_t>(kFrames));
  for (const Frame& f : frames) {
    EXPECT_EQ(f.payload.size(), kPayload);
  }
  EXPECT_EQ((*client)->stats().bytes,
            static_cast<uint64_t>(kFrames) * kPayload);
  EXPECT_EQ((*server)->stats().bytes,
            static_cast<uint64_t>(kFrames) * kPayload);
}

// --- Liveness edge cases ----------------------------------------------------

TEST(HeartbeatExpiredTest, DeadlineBoundaryIsExact) {
  // A heartbeat landing exactly at the deadline keeps the site alive;
  // one millisecond past it does not.
  static_assert(!HeartbeatExpired(0, 100));
  static_assert(!HeartbeatExpired(100, 100));
  static_assert(HeartbeatExpired(101, 100));
  // timeout 0: any nonzero silence downs the site, zero silence does not.
  static_assert(!HeartbeatExpired(0, 0));
  static_assert(HeartbeatExpired(1, 0));
  EXPECT_FALSE(HeartbeatExpired(2000, 2000));
  EXPECT_TRUE(HeartbeatExpired(2001, 2000));
}

TEST(SocketTransportTest, ZeroTimeoutDownsAnySilenceAndTrafficRevives) {
  FrameSink sink;
  CoordinatorServer::Options copt;
  copt.heartbeat_timeout_ms = 0;  // any silence at all is an outage
  copt.sweep_period_ms = 10;
  auto server = CoordinatorServer::Start(0, copt, sink.handler());
  ASSERT_TRUE(server.ok());

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;  // silent site
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 6, topt);
  ASSERT_TRUE(client.ok());
  // The hello registers the site, then the first sweep already downs it.
  ASSERT_TRUE(WaitFor(
      [&] { return (*server)->site(6).health == SiteHealth::kDown; }));
  EXPECT_GE((*server)->downs(), 1u);
  EXPECT_EQ((*server)->rejoins(), 0u);

  // A down site stays down without traffic: exactly one transition.
  EXPECT_EQ((*server)->downs(), 1u);

  // Traffic on the same connection revives it without a new hello, and
  // the next silent sweep downs it again: flapping without churn. The
  // revived kUp lasts at most one sweep, so wait on monotone facts
  // instead — the sweeper only downs a kUp site, so a second down proves
  // the frame revived it.
  std::vector<uint8_t> payload{1, 2, 3};
  ASSERT_TRUE((*client)
                  ->SendPayload(FrameType::kBlob, kCoordinatorNode, payload)
                  .ok());
  ASSERT_TRUE(WaitFor([&] { return (*server)->site(6).frames == 1; }));
  ASSERT_TRUE(WaitFor([&] { return (*server)->downs() >= 2; }));
  EXPECT_EQ((*server)->site(6).joins, 1u);
  EXPECT_EQ((*server)->rejoins(), 0u);
}

TEST(SocketTransportTest, TimeoutSmallerThanHeartbeatPeriodFlaps) {
  // Misconfiguration the liveness layer must survive: the site beacons
  // slower than the coordinator's patience, so it flaps down between
  // beats and revives on each one — never a rejoin, never a join churn.
  FrameSink sink;
  CoordinatorServer::Options copt;
  copt.heartbeat_timeout_ms = 50;
  copt.sweep_period_ms = 10;
  auto server = CoordinatorServer::Start(0, copt, sink.handler());
  ASSERT_TRUE(server.ok());

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 150;  // 3x the coordinator's timeout
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 7, topt);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(WaitFor([&] { return (*server)->downs() >= 2; }));
  EXPECT_EQ((*server)->rejoins(), 0u);
  EXPECT_EQ((*server)->site(7).joins, 1u);
  // The connection itself stayed healthy through the flapping.
  EXPECT_TRUE((*client)->status().ok());
  EXPECT_EQ((*client)->reconnects(), 0u);
}

TEST(SocketTransportTest, StaleConnectionEofKeepsRejoinedSiteUp) {
  // A site rejoins on a new connection before its old one closes. The
  // old connection's EOF must not down the live, rejoined site.
  FrameSink sink;
  CoordinatorServer::Options copt;
  copt.heartbeat_timeout_ms = 10'000;
  copt.sweep_period_ms = 10;
  auto server = CoordinatorServer::Start(0, copt, sink.handler());
  ASSERT_TRUE(server.ok());

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  auto a = SocketTransport::Connect("127.0.0.1", (*server)->port(), 5, topt);
  ASSERT_TRUE(a.ok());
  // Each connection has its own reader thread: wait for A's hello so B's
  // is the later join.
  ASSERT_TRUE(WaitFor([&] { return (*server)->site(5).joins == 1; }));
  topt.epoch = 2;
  auto b = SocketTransport::Connect("127.0.0.1", (*server)->port(), 5, topt);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(WaitFor([&] { return (*server)->site(5).joins == 2; }));

  a->reset();  // the superseded connection closes
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ((*server)->site(5).health, SiteHealth::kUp);
  EXPECT_EQ((*server)->downs(), 0u);
  EXPECT_EQ((*server)->site(5).epoch, 2u);
}

TEST(SocketTransportTest, FlappingFasterThanSweeperIsCountedViaEof) {
  // The sweeper is nearly asleep (10 s cadence): down transitions for
  // these flaps can only come from the EOF path, and every one must be
  // counted even though no sweep runs between them.
  FrameSink sink;
  CoordinatorServer::Options copt;
  copt.heartbeat_timeout_ms = 10'000;
  copt.sweep_period_ms = 10'000;
  auto server = CoordinatorServer::Start(0, copt, sink.handler());
  ASSERT_TRUE(server.ok());

  constexpr int kFlaps = 3;
  for (int i = 0; i < kFlaps; ++i) {
    SocketTransport::Options topt;
    topt.heartbeat_period_ms = 0;
    topt.epoch = static_cast<uint32_t>(i + 1);
    auto client =
        SocketTransport::Connect("127.0.0.1", (*server)->port(), 8, topt);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(WaitFor(
        [&] { return (*server)->site(8).health == SiteHealth::kUp; }));
    client->reset();  // abrupt close, no kDone: a crash, not a clean exit
    ASSERT_TRUE(WaitFor(
        [&] { return (*server)->site(8).health == SiteHealth::kDown; }));
  }
  SiteStatus st = (*server)->site(8);
  EXPECT_EQ(st.joins, static_cast<uint32_t>(kFlaps));
  EXPECT_EQ((*server)->rejoins(), static_cast<uint64_t>(kFlaps - 1));
  EXPECT_EQ((*server)->downs(), static_cast<uint64_t>(kFlaps));
  EXPECT_EQ(st.epoch, static_cast<uint32_t>(kFlaps));
}

// --- In-transport reconnect -------------------------------------------------

TEST(SocketTransportTest, ReconnectHealsAcrossServerRestart) {
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 20;  // beacons detect the dead link fast
  topt.reconnect_attempts = 50;
  topt.backoff = BackoffPolicy{/*initial_ms=*/10, /*max_ms=*/80,
                               /*multiplier=*/2.0, /*jitter=*/0.2,
                               /*seed=*/3};

  FrameSink sink_a;
  int port = 0;
  std::unique_ptr<SocketTransport> client;
  {
    auto server_a = CoordinatorServer::Start(0, CoordinatorServer::Options{},
                                             sink_a.handler());
    ASSERT_TRUE(server_a.ok());
    port = (*server_a)->port();
    auto connected = SocketTransport::Connect("127.0.0.1", port, 5, topt);
    ASSERT_TRUE(connected.ok());
    client = std::move(*connected);
    std::vector<uint8_t> payload{1, 1, 2, 3, 5};
    ASSERT_TRUE(client->SendPayload(FrameType::kBlob, kCoordinatorNode,
                                    payload)
                    .ok());
    ASSERT_TRUE(client->Flush().ok());
    ASSERT_TRUE(sink_a.WaitForCount(1));
    // Coordinator crashes: server torn down, port released.
  }

  // Restart on the same port. The bind can transiently refuse while the
  // old listener drains, so retry.
  FrameSink sink_b;
  std::unique_ptr<CoordinatorServer> server_b;
  ASSERT_TRUE(WaitFor([&] {
    auto restarted = CoordinatorServer::Start(
        port, CoordinatorServer::Options{}, sink_b.handler());
    if (!restarted.ok()) return false;
    server_b = std::move(*restarted);
    return true;
  }));

  // The transport heals on its own: heartbeat writes fail, the backoff
  // dial loop lands on the reborn coordinator, a fresh-epoch hello
  // re-registers the site.
  ASSERT_TRUE(WaitFor([&] { return client->reconnects() >= 1; }));
  ASSERT_TRUE(WaitFor(
      [&] { return server_b->site(5).health == SiteHealth::kUp; }));
  EXPECT_TRUE(client->status().ok());
  EXPECT_GE(client->epoch(), 2u);
  EXPECT_EQ(server_b->site(5).epoch, client->epoch());

  // The healed link carries traffic end to end.
  std::vector<uint8_t> payload{8, 13, 21};
  ASSERT_TRUE(
      client->SendPayload(FrameType::kBlob, kCoordinatorNode, payload).ok());
  ASSERT_TRUE(client->Flush().ok());
  ASSERT_TRUE(sink_b.WaitForCount(1));
  EXPECT_EQ(sink_b.frames()[0].payload, payload);
}

TEST(SocketTransportTest, FlushTimesOutWhileLinkIsDown) {
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  topt.reconnect_attempts = 1000;  // keep healing well past the Flush
  topt.backoff = BackoffPolicy{/*initial_ms=*/100, /*max_ms=*/200,
                               /*multiplier=*/2.0, /*jitter=*/0.0,
                               /*seed=*/1};
  std::unique_ptr<SocketTransport> client;
  FrameSink sink;
  {
    auto server = CoordinatorServer::Start(0, CoordinatorServer::Options{},
                                           sink.handler());
    ASSERT_TRUE(server.ok());
    auto connected =
        SocketTransport::Connect("127.0.0.1", (*server)->port(), 4, topt);
    ASSERT_TRUE(connected.ok());
    client = std::move(*connected);
  }
  // The server is gone. The first post-mortem write may still land in
  // the kernel buffer; the RST it provokes fails the next one for sure.
  std::vector<uint8_t> payload{42};
  ASSERT_TRUE(
      client->SendPayload(FrameType::kBlob, kCoordinatorNode, payload).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(
      client->SendPayload(FrameType::kBlob, kCoordinatorNode, payload).ok());
  // The sender is now in its backoff dial loop with frames still queued:
  // a bounded Flush must report the missed deadline, retryably.
  Status s = client->Flush(/*timeout_ms=*/150);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsRetryable(s));
}

// --- Wire-level fault injection ---------------------------------------------

TEST(SocketTransportTest, SeverFaultHealsWithoutLosingFrames) {
  FrameSink sink;
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok());

  FaultPlanConfig fcfg;
  fcfg.sever_p = 1.0;  // the link dies behind every application frame
  FaultPlan plan(fcfg);
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  topt.reconnect_attempts = 20;
  topt.backoff = BackoffPolicy{/*initial_ms=*/5, /*max_ms=*/40,
                               /*multiplier=*/2.0, /*jitter=*/0.0,
                               /*seed=*/2};
  topt.fault_plan = &plan;
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 9, topt);
  ASSERT_TRUE(client.ok());

  constexpr int kFrames = 5;
  for (uint8_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE((*client)
                    ->SendPayload(FrameType::kBlob, kCoordinatorNode,
                                  std::vector<uint8_t>{i})
                    .ok());
  }
  ASSERT_TRUE((*client)->Flush().ok());
  ASSERT_TRUE(sink.WaitForCount(kFrames));

  // Every frame reached the wire exactly once, in order, across five
  // injected outages each healed by an in-transport reconnect.
  std::vector<Frame> frames = sink.frames();
  ASSERT_EQ(frames.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(frames[static_cast<size_t>(i)].payload,
              std::vector<uint8_t>{static_cast<uint8_t>(i)});
  }
  EXPECT_EQ((*client)->injection_stats().severs,
            static_cast<uint64_t>(kFrames));
  ASSERT_TRUE(WaitFor([&] {
    return (*client)->reconnects() == static_cast<uint64_t>(kFrames);
  }));
  EXPECT_EQ((*client)->epoch(), 1u + kFrames);
  EXPECT_TRUE((*client)->status().ok());
  ASSERT_TRUE(WaitFor(
      [&] { return (*server)->site(9).epoch == (*client)->epoch(); }));
  EXPECT_EQ((*server)->rejoins(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ((*server)->stats().messages, static_cast<uint64_t>(kFrames));
}

TEST(SocketTransportTest, CorruptFaultPassesFramingFailsAppChecksum) {
  // The plan flips a payload bit *before* framing: the frame checksum is
  // valid (the stream survives), and the corruption must be caught by
  // the application-level dist/serialize checksum instead.
  FrameSink sink;
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok());

  FaultPlanConfig fcfg;
  fcfg.corrupt_p = 1.0;
  FaultPlan plan(fcfg);
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  topt.fault_plan = &plan;
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 2, topt);
  ASSERT_TRUE(client.ok());

  EcmConfig cfg = SketchCfg(83);
  EcmSketch<ExponentialHistogram> sketch(cfg);
  for (const StreamEvent& e : ZipfEvents(2'000, 1, 17)) {
    sketch.Add(e.key, e.ts);
  }
  std::vector<uint8_t> wire = SerializeSketch(sketch);
  ASSERT_TRUE(
      (*client)->SendPayload(FrameType::kSketch, kCoordinatorNode, wire).ok());
  ASSERT_TRUE((*client)->Flush().ok());
  ASSERT_TRUE(sink.WaitForCount(1));

  EXPECT_EQ((*client)->injection_stats().corrupts, 1u);
  EXPECT_EQ((*server)->corrupt_streams(), 0u);  // framing passed
  std::vector<Frame> frames = sink.frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_NE(frames[0].payload, wire);
  auto back = DeserializeSketch<ExponentialHistogram>(frames[0].payload);
  ASSERT_FALSE(back.ok());  // ... but serialize's checksum catches it
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(SocketTransportTest, DropAndDelayFaultsAtTheWire) {
  FrameSink sink;
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok());

  // Drops: offered traffic is charged, nothing arrives.
  FaultPlanConfig drop_cfg;
  drop_cfg.drop_p = 1.0;
  FaultPlan drop_plan(drop_cfg);
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  topt.fault_plan = &drop_plan;
  {
    auto client =
        SocketTransport::Connect("127.0.0.1", (*server)->port(), 3, topt);
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*client)
                      ->SendPayload(FrameType::kBlob, kCoordinatorNode,
                                    std::vector<uint8_t>{1, 2})
                      .ok());
    }
    ASSERT_TRUE((*client)->Flush().ok());
    EXPECT_EQ((*client)->stats().messages, 4u);  // offered, per PR 5 currency
    EXPECT_EQ((*client)->injection_stats().drops, 4u);
  }
  EXPECT_EQ((*server)->stats().messages, 0u);

  // Delays: reordering, never loss — Flush releases the stragglers.
  FaultPlanConfig delay_cfg;
  delay_cfg.delay_p = 1.0;
  delay_cfg.max_delay_frames = 3;
  FaultPlan delay_plan(delay_cfg);
  topt.fault_plan = &delay_plan;
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 5, topt);
  ASSERT_TRUE(client.ok());
  constexpr int kFrames = 6;
  for (uint8_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE((*client)
                    ->SendPayload(FrameType::kBlob, kCoordinatorNode,
                                  std::vector<uint8_t>{i})
                    .ok());
  }
  ASSERT_TRUE((*client)->Flush().ok());
  ASSERT_TRUE(sink.WaitForCount(kFrames));
  EXPECT_EQ((*client)->injection_stats().delays,
            static_cast<uint64_t>(kFrames));
  std::vector<int> seen(kFrames, 0);
  for (const Frame& f : sink.frames()) {
    ASSERT_EQ(f.payload.size(), 1u);
    ++seen[f.payload[0]];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

/// Inner transport that records every delivered payload, in order.
class RecordingTransport final : public Transport {
 public:
  void Send(NodeId, NodeId, const uint8_t* data, size_t size) override {
    payloads.emplace_back(data, data + size);
  }
  NetworkStats stats() const override { return {}; }

  std::vector<std::vector<uint8_t>> payloads;
};

TEST(SocketTransportTest, FaultPlanInjectsTheSameThroughBothTransports) {
  // One plan, one node's script, two transports: the in-process
  // decorator and the TCP transport apply the plan through the same
  // FaultInjector, so they must count the same faults and deliver the
  // same payloads in the same order.
  FaultPlanConfig fcfg;
  fcfg.seed = 5;
  fcfg.drop_p = 0.15;
  fcfg.duplicate_p = 0.15;
  fcfg.corrupt_p = 0.15;
  fcfg.delay_p = 0.15;
  fcfg.max_delay_frames = 3;
  const FaultPlan plan(fcfg);
  constexpr NodeId kNode = 4;
  constexpr uint64_t kMessages = 60;

  // The first message the plan corrupts is empty: it has no bit to flip,
  // so it passes unflipped and uncounted through both.
  std::vector<std::vector<uint8_t>> script;
  bool emptied = false;
  for (uint64_t i = 0; i < kMessages; ++i) {
    std::vector<uint8_t> payload(8 + i % 5);
    for (size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<uint8_t>(i * 13 + j);
    }
    if (!emptied && plan.ActionFor(kNode, i) == FaultAction::kCorrupt) {
      payload.clear();
      emptied = true;
    }
    script.push_back(std::move(payload));
  }
  ASSERT_TRUE(emptied);

  RecordingTransport inner;
  FaultInjectingTransport decorator(&inner, &plan);
  for (const auto& p : script) {
    decorator.Send(kNode, kCoordinatorNode, p.data(), p.size());
  }
  decorator.FlushDelayed();
  const InjectionStats expect = decorator.injection_stats();
  EXPECT_EQ(expect.messages, kMessages);
  EXPECT_GT(expect.drops, 0u);
  EXPECT_GT(expect.duplicates, 0u);
  EXPECT_GT(expect.corrupts, 0u);
  EXPECT_GT(expect.delays, 0u);

  FrameSink sink;
  auto server =
      CoordinatorServer::Start(0, CoordinatorServer::Options{}, sink.handler());
  ASSERT_TRUE(server.ok());
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  topt.fault_plan = &plan;
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), kNode, topt);
  ASSERT_TRUE(client.ok());
  for (const auto& p : script) {
    (*client)->Send(kNode, kCoordinatorNode, p.data(), p.size());
  }
  ASSERT_TRUE((*client)->Flush().ok());
  ASSERT_TRUE(sink.WaitForCount(inner.payloads.size()));

  EXPECT_EQ((*client)->injection_stats(), expect);
  std::vector<std::vector<uint8_t>> delivered;
  for (const Frame& f : sink.frames()) delivered.push_back(f.payload);
  EXPECT_EQ(delivered, inner.payloads);
}

// --- Coordinator-side hello refusal ----------------------------------------

TEST(SocketTransportTest, HelloRefusalWindowOutlastedByBackoffRetries) {
  // The coordinator refuses node 7's first two hello attempts (a
  // partition in attempt space). The site's reconnect machinery must
  // retry through the window and register on the third attempt.
  FaultPlanConfig fcfg;
  fcfg.hello_refusals.push_back(
      {/*node=*/7, /*refuse_from=*/0, /*refuse_count=*/2});
  FaultPlan plan(fcfg);
  FrameSink sink;
  CoordinatorServer::Options copt;
  copt.fault_plan = &plan;
  auto server = CoordinatorServer::Start(0, copt, sink.handler());
  ASSERT_TRUE(server.ok());

  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 15;  // beacons surface the refused link fast
  topt.reconnect_attempts = 30;
  topt.backoff = BackoffPolicy{/*initial_ms=*/5, /*max_ms=*/40,
                               /*multiplier=*/2.0, /*jitter=*/0.0,
                               /*seed=*/4};
  auto client =
      SocketTransport::Connect("127.0.0.1", (*server)->port(), 7, topt);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(WaitFor(
      [&] { return (*server)->site(7).health == SiteHealth::kUp; }));
  EXPECT_EQ((*server)->hello_refusals(), 2u);
  SiteStatus st = (*server)->site(7);
  EXPECT_EQ(st.hello_attempts, 3u);
  EXPECT_EQ(st.joins, 1u);  // the refused attempts never registered
  EXPECT_EQ((*server)->rejoins(), 0u);
  EXPECT_GE((*client)->reconnects(), 2u);
  EXPECT_GE((*client)->epoch(), 3u);
  EXPECT_EQ(st.epoch, (*client)->epoch());

  // The admitted link carries traffic.
  std::vector<uint8_t> payload{7, 7, 7};
  ASSERT_TRUE(
      (*client)->SendPayload(FrameType::kBlob, kCoordinatorNode, payload).ok());
  ASSERT_TRUE((*client)->Flush().ok());
  ASSERT_TRUE(sink.WaitForCount(1));
  EXPECT_TRUE((*client)->status().ok());
}

}  // namespace
}  // namespace ecm
