// Tests for the bounded-disorder reorder buffer: in-order release,
// lateness policies, end-to-end sketch accuracy behind a jittery feed.

#include "tests/reorder.h"

#include <gtest/gtest.h>

#include "src/core/ecm_sketch.h"
#include "src/stream/generators.h"

namespace ecm {
namespace {

TEST(ReorderBufferTest, ReleasesInOrder) {
  std::vector<StreamEvent> out;
  ReorderBuffer buf({/*max_lateness=*/10, ReorderBuffer::LatePolicy::kDrop},
                    [&](const StreamEvent& e) { out.push_back(e); });
  for (Timestamp ts : {5u, 3u, 8u, 7u, 20u, 15u, 14u, 30u}) {
    buf.Push({ts, 1, 0});
  }
  buf.Flush();
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].ts, out[i].ts);
  }
}

TEST(ReorderBufferTest, HoldsBackUntilWatermarkAdvances) {
  std::vector<StreamEvent> out;
  ReorderBuffer buf({100, ReorderBuffer::LatePolicy::kDrop},
                    [&](const StreamEvent& e) { out.push_back(e); });
  buf.Push({50, 1, 0});
  buf.Push({60, 2, 0});
  EXPECT_TRUE(out.empty());  // nothing is 100 ticks old yet
  EXPECT_EQ(buf.Pending(), 2u);
  buf.Push({161, 3, 0});  // watermark 161 releases everything <= 61
  EXPECT_EQ(out.size(), 2u);
  buf.Flush();
  EXPECT_EQ(out.size(), 3u);
}

TEST(ReorderBufferTest, DropPolicyDiscardsTooLate) {
  std::vector<StreamEvent> out;
  ReorderBuffer buf({10, ReorderBuffer::LatePolicy::kDrop},
                    [&](const StreamEvent& e) { out.push_back(e); });
  buf.Push({100, 1, 0});
  buf.Push({50, 2, 0});  // 50 ticks late, bound is 10 -> dropped
  buf.Flush();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 100u);
  EXPECT_EQ(buf.late_events(), 1u);
  EXPECT_EQ(buf.dropped_events(), 1u);
}

TEST(ReorderBufferTest, ClampPolicyKeepsTheCount) {
  std::vector<StreamEvent> out;
  ReorderBuffer buf({10, ReorderBuffer::LatePolicy::kClampForward},
                    [&](const StreamEvent& e) { out.push_back(e); });
  buf.Push({100, 1, 0});
  buf.Push({50, 2, 0});  // clamped to the release frontier
  buf.Flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(buf.dropped_events(), 0u);
  EXPECT_EQ(buf.late_events(), 1u);
  // The clamped event still came out in non-decreasing order.
  EXPECT_LE(out[0].ts, out[1].ts);
}

TEST(ReorderBufferTest, ShuffleHelperKeepsMultisetAndBoundsDisorder) {
  ZipfStream::Config zc;
  zc.seed = 4;
  ZipfStream stream(zc);
  auto ordered = stream.Take(5000);
  auto shuffled = ShuffleWithBoundedDelay(ordered, /*max_shift=*/200, 7);
  ASSERT_EQ(shuffled.size(), ordered.size());
  // Same multiset of events.
  auto key_of = [](const StreamEvent& e) {
    return e.ts * 1000003ULL + e.key;
  };
  std::vector<uint64_t> a, b;
  for (const auto& e : ordered) a.push_back(key_of(e));
  for (const auto& e : shuffled) b.push_back(key_of(e));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  // Disorder is bounded: each event's ts is within max_shift of the
  // running maximum.
  Timestamp watermark = 0;
  for (const auto& e : shuffled) {
    watermark = std::max(watermark, e.ts);
    EXPECT_LE(watermark - e.ts, 200u);
  }
}

TEST(ReorderBufferTest, SketchBehindJitteryFeedMatchesOrderedFeed) {
  // End-to-end: ECM sketch fed through the reorder buffer from a shuffled
  // stream must answer like one fed the ordered stream.
  constexpr uint64_t kWindow = 50'000;
  auto cfg = EcmConfig::Create(0.05, 0.05, WindowMode::kTimeBased, kWindow, 9);
  ASSERT_TRUE(cfg.ok());
  EcmSketch<ExponentialHistogram> ordered_sketch(*cfg);
  EcmSketch<ExponentialHistogram> jitter_sketch(*cfg);

  ZipfStream::Config zc;
  zc.domain = 500;
  zc.skew = 1.0;
  zc.seed = 10;
  ZipfStream stream(zc);
  auto events = stream.Take(30000);
  for (const auto& e : events) ordered_sketch.Add(e.key, e.ts);

  auto shuffled = ShuffleWithBoundedDelay(events, /*max_shift=*/500, 11);
  ReorderBuffer buf(
      {/*max_lateness=*/500, ReorderBuffer::LatePolicy::kClampForward},
      [&](const StreamEvent& e) { jitter_sketch.Add(e.key, e.ts); });
  for (const auto& e : shuffled) buf.Push(e);
  buf.Flush();

  EXPECT_EQ(jitter_sketch.l1_lifetime(), ordered_sketch.l1_lifetime());
  Timestamp now = std::max(ordered_sketch.Now(), jitter_sketch.Now());
  for (uint64_t key = 1; key <= 500; key += 29) {
    double a = ordered_sketch.PointQueryAt(key, kWindow, now);
    double b = jitter_sketch.PointQueryAt(key, kWindow, now);
    EXPECT_NEAR(a, b, std::max(a, b) * 0.1 + 2.0) << "key " << key;
  }
}

TEST(ReorderBufferTest, FlushIsIdempotent) {
  int released = 0;
  ReorderBuffer buf({10, ReorderBuffer::LatePolicy::kDrop},
                    [&](const StreamEvent&) { ++released; });
  buf.Push({1, 1, 0});
  buf.Flush();
  buf.Flush();
  EXPECT_EQ(released, 1);
  EXPECT_EQ(buf.Pending(), 0u);
}

}  // namespace
}  // namespace ecm
