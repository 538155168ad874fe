// Tests for the deterministic fault-injection layer (dist/fault.h):
//  * FaultPlan decisions are pure functions of (seed, node, index) —
//    identical across instances; different seeds decorrelate;
//  * FaultInjectingTransport replays byte-identically for a fixed seed
//    (the PR acceptance invariant), and its drop / duplicate / corrupt /
//    delay / partition semantics do exactly what they claim against a
//    recording inner transport;
//  * BackoffDelayMs grows exponentially to the cap with deterministic,
//    bounded jitter;
//  * the widened Status taxonomy classifies retryable vs fatal.

#include "src/dist/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/dist/transport.h"
#include "src/util/status.h"

namespace ecm {
namespace {

/// Inner transport that records every delivered message verbatim.
class RecordingTransport final : public Transport {
 public:
  struct Message {
    NodeId from = 0;
    NodeId to = 0;
    std::vector<uint8_t> bytes;
  };

  void Send(NodeId from, NodeId to, const uint8_t* data,
            size_t size) override {
    messages.push_back(
        Message{from, to, std::vector<uint8_t>(data, data + size)});
  }
  NetworkStats stats() const override {
    NetworkStats s;
    s.messages = messages.size();
    for (const auto& m : messages) s.bytes += m.bytes.size();
    return s;
  }

  std::vector<Message> messages;
};

bool SameMessages(const std::vector<RecordingTransport::Message>& a,
                  const std::vector<RecordingTransport::Message>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].from != b[i].from || a[i].to != b[i].to ||
        a[i].bytes != b[i].bytes) {
      return false;
    }
  }
  return true;
}

/// Drives a fixed deterministic message script through the decorator.
void RunScript(FaultInjectingTransport* t, int messages_per_node,
               int nodes) {
  for (int i = 0; i < messages_per_node; ++i) {
    for (NodeId node = 0; node < nodes; ++node) {
      std::vector<uint8_t> payload(16 + static_cast<size_t>(i % 5));
      for (size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<uint8_t>(node * 31 + i * 7 +
                                          static_cast<int>(j));
      }
      t->Send(node, kCoordinatorNode, payload.data(), payload.size());
    }
  }
  t->FlushDelayed();
}

// --- Status taxonomy (satellite) -------------------------------------------

TEST(StatusTaxonomyTest, RetryableClassification) {
  EXPECT_TRUE(IsRetryable(Status::Unavailable("link flap")));
  EXPECT_TRUE(IsRetryable(Status::DeadlineExceeded("timed out")));
  EXPECT_FALSE(IsRetryable(Status::OK()));
  EXPECT_FALSE(IsRetryable(Status::IOError("bad fd")));
  EXPECT_FALSE(IsRetryable(Status::Corruption("bit rot")));
  EXPECT_FALSE(IsRetryable(Status::StaleBase("old delta")));
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(std::string(StatusCodeToString(StatusCode::kUnavailable)),
            "Unavailable");
  EXPECT_EQ(std::string(StatusCodeToString(StatusCode::kDeadlineExceeded)),
            "Deadline exceeded");
}

// --- BackoffDelayMs ---------------------------------------------------------

TEST(BackoffTest, GrowsExponentiallyToCapWithoutJitter) {
  BackoffPolicy p;
  p.initial_ms = 10;
  p.max_ms = 100;
  p.multiplier = 2.0;
  p.jitter = 0.0;
  EXPECT_EQ(BackoffDelayMs(p, 0), 10u);
  EXPECT_EQ(BackoffDelayMs(p, 1), 20u);
  EXPECT_EQ(BackoffDelayMs(p, 2), 40u);
  EXPECT_EQ(BackoffDelayMs(p, 3), 80u);
  EXPECT_EQ(BackoffDelayMs(p, 4), 100u);   // capped
  EXPECT_EQ(BackoffDelayMs(p, 60), 100u);  // no overflow far past the cap
}

TEST(BackoffTest, JitterIsDeterministicAndBounded) {
  BackoffPolicy p;
  p.initial_ms = 1000;
  p.max_ms = 1000;
  p.multiplier = 2.0;
  p.jitter = 0.5;
  p.seed = 42;
  bool any_jittered = false;
  for (uint32_t attempt = 0; attempt < 16; ++attempt) {
    const uint64_t d = BackoffDelayMs(p, attempt);
    // Replays identically.
    EXPECT_EQ(d, BackoffDelayMs(p, attempt));
    // Within [cap * (1 - jitter), cap].
    EXPECT_GE(d, 500u);
    EXPECT_LE(d, 1000u);
    if (d != 1000u) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
  // A different seed re-rolls the jitter somewhere within 16 attempts.
  BackoffPolicy q = p;
  q.seed = 43;
  bool differs = false;
  for (uint32_t attempt = 0; attempt < 16; ++attempt) {
    differs |= BackoffDelayMs(p, attempt) != BackoffDelayMs(q, attempt);
  }
  EXPECT_TRUE(differs);
}

// --- FaultPlan decisions ----------------------------------------------------

TEST(FaultPlanTest, DecisionsAreDeterministicPerCoordinate) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.drop_p = 0.1;
  cfg.duplicate_p = 0.1;
  cfg.corrupt_p = 0.1;
  cfg.delay_p = 0.1;
  cfg.sever_p = 0.1;
  FaultPlan plan(cfg);
  FaultPlan twin(cfg);
  for (NodeId node = 0; node < 4; ++node) {
    for (uint64_t i = 0; i < 200; ++i) {
      EXPECT_EQ(plan.ActionFor(node, i), twin.ActionFor(node, i));
      EXPECT_EQ(plan.DelayFrames(node, i), twin.DelayFrames(node, i));
      EXPECT_EQ(plan.CorruptBit(node, i, 128), twin.CorruptBit(node, i, 128));
    }
  }
  // All five actions actually occur at these rates over 800 draws.
  std::map<FaultAction, int> seen;
  for (NodeId node = 0; node < 4; ++node) {
    for (uint64_t i = 0; i < 200; ++i) ++seen[plan.ActionFor(node, i)];
  }
  EXPECT_GT(seen[FaultAction::kNone], 0);
  EXPECT_GT(seen[FaultAction::kDrop], 0);
  EXPECT_GT(seen[FaultAction::kDuplicate], 0);
  EXPECT_GT(seen[FaultAction::kCorrupt], 0);
  EXPECT_GT(seen[FaultAction::kDelay], 0);
  EXPECT_GT(seen[FaultAction::kSever], 0);
}

TEST(FaultPlanTest, SeedsDecorrelate) {
  FaultPlanConfig cfg;
  cfg.drop_p = 0.5;
  cfg.seed = 1;
  FaultPlan a(cfg);
  cfg.seed = 2;
  FaultPlan b(cfg);
  int differs = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    differs += a.ActionFor(0, i) != b.ActionFor(0, i);
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultPlanTest, PartitionWindowDropsEverything) {
  FaultPlanConfig cfg;
  cfg.partitions.push_back({/*node=*/1, /*from_frame=*/10, /*to_frame=*/20});
  FaultPlan plan(cfg);
  for (uint64_t i = 0; i < 30; ++i) {
    const bool inside = i >= 10 && i < 20;
    EXPECT_EQ(plan.InPartition(1, i), inside);
    EXPECT_EQ(plan.ActionFor(1, i),
              inside ? FaultAction::kDrop : FaultAction::kNone);
    // Other nodes are unaffected.
    EXPECT_EQ(plan.ActionFor(0, i), FaultAction::kNone);
  }
}

TEST(FaultPlanTest, HelloRefusalWindow) {
  FaultPlanConfig cfg;
  cfg.hello_refusals.push_back(
      {/*node=*/2, /*refuse_from=*/1, /*refuse_count=*/3});
  FaultPlan plan(cfg);
  EXPECT_FALSE(plan.RefuseHello(2, 0));
  EXPECT_TRUE(plan.RefuseHello(2, 1));
  EXPECT_TRUE(plan.RefuseHello(2, 2));
  EXPECT_TRUE(plan.RefuseHello(2, 3));
  EXPECT_FALSE(plan.RefuseHello(2, 4));
  EXPECT_FALSE(plan.RefuseHello(0, 1));
}

TEST(FaultPlanTest, DelayFramesWithinConfiguredSpan) {
  FaultPlanConfig cfg;
  cfg.max_delay_frames = 3;
  FaultPlan plan(cfg);
  for (uint64_t i = 0; i < 100; ++i) {
    const uint32_t d = plan.DelayFrames(0, i);
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 3u);
  }
}

TEST(FaultPlanTest, CorruptBitInRange) {
  FaultPlanConfig cfg;
  FaultPlan plan(cfg);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_LT(plan.CorruptBit(0, i, 17), 17u * 8);
  }
  EXPECT_EQ(plan.CorruptBit(0, 0, 0), 0u);
}

// --- FaultInjectingTransport ------------------------------------------------

TEST(FaultInjectingTransportTest, ReplaysByteIdenticallyForFixedSeed) {
  FaultPlanConfig cfg;
  cfg.seed = 1234;
  cfg.drop_p = 0.15;
  cfg.duplicate_p = 0.15;
  cfg.corrupt_p = 0.15;
  cfg.delay_p = 0.15;
  FaultPlan plan(cfg);

  RecordingTransport run1;
  RecordingTransport run2;
  {
    FaultInjectingTransport t(&run1, &plan);
    RunScript(&t, /*messages_per_node=*/100, /*nodes=*/3);
  }
  {
    FaultInjectingTransport t(&run2, &plan);
    RunScript(&t, /*messages_per_node=*/100, /*nodes=*/3);
  }
  EXPECT_TRUE(SameMessages(run1.messages, run2.messages));

  // Faults really fired (this is not a pass-through comparison) ...
  RecordingTransport clean_inner;
  FaultPlan no_faults{FaultPlanConfig{}};
  FaultInjectingTransport clean(&clean_inner, &no_faults);
  RunScript(&clean, 100, 3);
  EXPECT_FALSE(SameMessages(run1.messages, clean_inner.messages));

  // ... while a different seed injects a different fault history.
  cfg.seed = 77;
  FaultPlan other_plan(cfg);
  RecordingTransport run3;
  {
    FaultInjectingTransport t(&run3, &other_plan);
    RunScript(&t, 100, 3);
  }
  EXPECT_FALSE(SameMessages(run1.messages, run3.messages));
}

TEST(FaultInjectingTransportTest, DropsNeverReachInnerButAreCharged) {
  FaultPlanConfig cfg;
  cfg.drop_p = 1.0;
  FaultPlan plan(cfg);
  RecordingTransport inner;
  FaultInjectingTransport t(&inner, &plan);
  const std::vector<uint8_t> payload{1, 2, 3, 4, 5, 6, 7};
  t.Send(0, kCoordinatorNode, payload.data(), 3);
  t.Send(0, kCoordinatorNode, payload.data(), 7);
  t.FlushDelayed();
  EXPECT_TRUE(inner.messages.empty());
  // Offered-traffic accounting still sees both sends.
  EXPECT_EQ(t.stats().messages, 2u);
  EXPECT_EQ(t.stats().bytes, 10u);
  EXPECT_EQ(t.injection_stats().drops, 2u);
}

TEST(FaultInjectingTransportTest, DuplicateDeliversTwiceBackToBack) {
  FaultPlanConfig cfg;
  cfg.duplicate_p = 1.0;
  FaultPlan plan(cfg);
  RecordingTransport inner;
  FaultInjectingTransport t(&inner, &plan);
  const std::vector<uint8_t> payload{9, 8, 7};
  t.Send(3, kCoordinatorNode, payload.data(), payload.size());
  ASSERT_EQ(inner.messages.size(), 2u);
  EXPECT_EQ(inner.messages[0].bytes, payload);
  EXPECT_EQ(inner.messages[1].bytes, payload);
  EXPECT_EQ(t.injection_stats().duplicates, 1u);
}

TEST(FaultInjectingTransportTest, CorruptFlipsExactlyOneBit) {
  FaultPlanConfig cfg;
  cfg.corrupt_p = 1.0;
  FaultPlan plan(cfg);
  RecordingTransport inner;
  FaultInjectingTransport t(&inner, &plan);
  const std::vector<uint8_t> payload(64, 0xAA);
  t.Send(0, kCoordinatorNode, payload.data(), payload.size());
  ASSERT_EQ(inner.messages.size(), 1u);
  const std::vector<uint8_t>& got = inner.messages[0].bytes;
  ASSERT_EQ(got.size(), payload.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(got[i] ^ payload[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff = static_cast<uint8_t>(diff >> 1);
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(t.injection_stats().corrupts, 1u);
}

TEST(FaultInjectingTransportTest, DelayReordersButNeverLoses) {
  // Delay must mix with pass-through traffic to observably reorder: a
  // held message re-enters the stream behind later non-delayed ones.
  FaultPlanConfig cfg;
  cfg.seed = 5;
  cfg.delay_p = 0.5;
  cfg.max_delay_frames = 4;
  FaultPlan plan(cfg);
  RecordingTransport inner;
  FaultInjectingTransport t(&inner, &plan);
  constexpr uint8_t kCount = 32;
  for (uint8_t i = 0; i < kCount; ++i) {
    const std::vector<uint8_t> payload{i};
    t.Send(0, kCoordinatorNode, payload.data(), 1);
  }
  t.FlushDelayed();
  // Everything arrives exactly once (delay is reordering, not loss) ...
  ASSERT_EQ(inner.messages.size(), size_t{kCount});
  std::vector<int> seen(kCount, 0);
  bool reordered = false;
  for (size_t i = 0; i < inner.messages.size(); ++i) {
    const uint8_t tag = inner.messages[i].bytes.at(0);
    ++seen[tag];
    if (tag != i) reordered = true;
  }
  for (int c : seen) EXPECT_EQ(c, 1);
  // ... and out of the send order, since delays fired mid-stream.
  EXPECT_TRUE(reordered);
  EXPECT_GT(t.injection_stats().delays, 0u);
  EXPECT_LT(t.injection_stats().delays, uint64_t{kCount});
}

TEST(FaultInjectingTransportTest, PartitionWindowSilencesOneNode) {
  FaultPlanConfig cfg;
  cfg.partitions.push_back({/*node=*/1, /*from_frame=*/2, /*to_frame=*/4});
  FaultPlan plan(cfg);
  RecordingTransport inner;
  FaultInjectingTransport t(&inner, &plan);
  for (uint8_t i = 0; i < 6; ++i) {
    const std::vector<uint8_t> payload{i};
    t.Send(1, kCoordinatorNode, payload.data(), 1);
    t.Send(0, kCoordinatorNode, payload.data(), 1);
  }
  t.FlushDelayed();
  // Node 0's six messages all pass; node 1 loses indices 2 and 3.
  std::vector<uint8_t> from0;
  std::vector<uint8_t> from1;
  for (const auto& m : inner.messages) {
    (m.from == 0 ? from0 : from1).push_back(m.bytes.at(0));
  }
  EXPECT_EQ(from0, (std::vector<uint8_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(from1, (std::vector<uint8_t>{0, 1, 4, 5}));
  EXPECT_EQ(t.injection_stats().partition_drops, 2u);
}

}  // namespace
}  // namespace ecm
