// Failure-injection tests for the wire format: deserializers must survive
// arbitrary truncation and random byte corruption of every synopsis type
// without crashing — either rejecting with a Corruption status or, when
// the flip happens to produce a well-formed payload, yielding an object
// that answers queries without undefined behaviour.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/baselines/baselines.h"
#include "src/dist/serialize.h"
#include "src/stream/generators.h"
#include "src/util/random.h"

namespace ecm {
namespace {

template <typename Counter>
std::vector<uint8_t> SerializedCounter(uint64_t seed) {
  typename Counter::Config cfg{};
  if constexpr (std::is_same_v<Counter, ExponentialHistogram>) {
    cfg = {0.1, 5000};
  } else if constexpr (std::is_same_v<Counter, DeterministicWave>) {
    cfg = {0.1, 5000, 1 << 14};
  } else if constexpr (std::is_same_v<Counter, RandomizedWave>) {
    cfg.epsilon = 0.2;
    cfg.window_len = 5000;
    cfg.max_arrivals = 1 << 12;
    cfg.seed = seed;
  } else {
    cfg = {5000};
  }
  Counter counter(cfg);
  Rng rng(seed);
  Timestamp t = 1;
  for (int i = 0; i < 3000; ++i) {
    t += rng.Uniform(3);
    counter.Add(t);
  }
  ByteWriter w;
  counter.SerializeTo(&w);
  return w.MoveBytes();
}

template <typename Counter>
void RunTruncationSweep() {
  auto bytes = SerializedCounter<Counter>(1);
  // Every strict prefix must be rejected or parse to a safe object.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    ByteReader r(bytes.data(), len);
    Counter result;
    Status st = result.DecodeFrom(&r);
    if (st.ok()) {
      // A prefix that happens to parse must still answer queries safely.
      (void)result.Estimate(result.last_timestamp(), 1000);
    } else {
      EXPECT_EQ(st.code(), StatusCode::kCorruption);
    }
  }
}

TEST(CorruptionTest, EhTruncationSweep) {
  RunTruncationSweep<ExponentialHistogram>();
}
TEST(CorruptionTest, DwTruncationSweep) {
  RunTruncationSweep<DeterministicWave>();
}
TEST(CorruptionTest, RwTruncationSweep) {
  RunTruncationSweep<RandomizedWave>();
}
TEST(CorruptionTest, ExactTruncationSweep) {
  RunTruncationSweep<ExactWindow>();
}

template <typename Counter>
void RunBitFlipSweep(int trials) {
  auto bytes = SerializedCounter<Counter>(2);
  Rng rng(99);
  for (int trial = 0; trial < trials; ++trial) {
    auto corrupted = bytes;
    // Flip 1-4 random bits.
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(corrupted.size());
      corrupted[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    }
    ByteReader r(corrupted);
    Counter result;
    if (result.DecodeFrom(&r).ok()) {
      (void)result.Estimate(result.last_timestamp(), 1000);
      (void)result.MemoryBytes();
    }
  }
}

TEST(CorruptionTest, EhBitFlips) { RunBitFlipSweep<ExponentialHistogram>(300); }
TEST(CorruptionTest, DwBitFlips) { RunBitFlipSweep<DeterministicWave>(300); }
TEST(CorruptionTest, RwBitFlips) { RunBitFlipSweep<RandomizedWave>(300); }
TEST(CorruptionTest, ExactBitFlips) { RunBitFlipSweep<ExactWindow>(300); }

TEST(CorruptionTest, SketchTruncationSweep) {
  auto sketch = EcmEh::Create(0.15, 0.2, WindowMode::kTimeBased, 5000, 3);
  ASSERT_TRUE(sketch.ok());
  Rng rng(5);
  Timestamp t = 1;
  for (int i = 0; i < 5000; ++i) {
    t += rng.Uniform(2);
    sketch->Add(rng.Uniform(100), t);
  }
  auto bytes = SerializeSketch(*sketch);
  for (size_t len = 0; len < bytes.size(); len += 97) {
    auto prefix = bytes;
    prefix.resize(len);
    auto result = DeserializeSketch<ExponentialHistogram>(prefix);
    if (result.ok()) {
      (void)result->PointQuery(1, 5000);
    }
  }
}

TEST(CorruptionTest, SketchBitFlips) {
  auto sketch = EcmEh::Create(0.15, 0.2, WindowMode::kTimeBased, 5000, 4);
  ASSERT_TRUE(sketch.ok());
  Rng rng(6);
  Timestamp t = 1;
  for (int i = 0; i < 5000; ++i) {
    t += rng.Uniform(2);
    sketch->Add(rng.Uniform(100), t);
  }
  auto bytes = SerializeSketch(*sketch);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = bytes;
    size_t pos = rng.Uniform(corrupted.size());
    corrupted[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    auto result = DeserializeSketch<ExponentialHistogram>(corrupted);
    if (result.ok()) {
      (void)result->PointQuery(1, 5000);
      (void)result->SelfJoin(5000);
    }
  }
}

// A checksum-valid image whose counters are ahead of its clock: a sender
// never produces one, and a query at the image's clock would count
// arrivals from its future (or trip the counters' `now >= last_ts`
// contract).
TEST(CorruptionTest, SketchCounterAheadOfClockRejected) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 8);
  ASSERT_TRUE(sketch.ok());
  for (Timestamp t = 1; t <= 5000; ++t) sketch->Add(t % 17, t);
  sketch->RestoreClock(10, sketch->l1_lifetime());
  auto bytes = SerializeSketch(*sketch);

  // A receiver holding a sketch of the same config decodes in place; the
  // rejection must empty it, as every failure among the counters does.
  std::optional<EcmEh> out(std::in_place, sketch->config());
  EXPECT_FALSE(DeserializeSketchInto(bytes.data(), bytes.size(), &out).ok());
  EXPECT_FALSE(out.has_value());
  auto result = DeserializeSketch<ExponentialHistogram>(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// Bit flips behind a recomputed checksum: SketchBitFlips almost always
// stops at the checksum, so this sweep re-wraps each mutated payload and
// reaches the config, clock and counter parsers. Whatever decodes must
// answer queries at its own clock.
template <typename Counter>
class SketchFieldFlipTest : public ::testing::Test {};
using FlipCounters =
    ::testing::Types<ExponentialHistogram, DeterministicWave, RandomizedWave>;
TYPED_TEST_SUITE(SketchFieldFlipTest, FlipCounters);

// Sketch shape and trial budget per counter, sized for a few seconds
// under ASan. Every counter gets 600 trials. A wave's image is larger per
// cell (a deterministic wave keeps ceil(1/ε)+2 entries on every level, a
// randomized wave every arrival of its low levels in each of its
// sub-waves), so the waves get coarser sketches.
struct FlipShape {
  double epsilon, delta;
  uint64_t max_arrivals;
  int arrivals;
  int trials;
};
template <typename Counter>
constexpr FlipShape FlipShapeFor() {
  if constexpr (std::is_same_v<Counter, ExponentialHistogram>) {
    return {0.15, 0.2, 1 << 12, 3000, 600};
  } else if constexpr (std::is_same_v<Counter, DeterministicWave>) {
    return {0.3, 0.3, 1 << 10, 1000, 600};
  } else {
    return {0.5, 0.5, 1 << 8, 300, 600};
  }
}

template <typename Counter>
void RunRechecksummedFlips(WindowMode mode) {
  constexpr FlipShape shape = FlipShapeFor<Counter>();
  auto sketch = EcmSketch<Counter>::Create(
      shape.epsilon, shape.delta, mode, 5000, 4, OptimizeFor::kPointQueries,
      shape.max_arrivals);
  ASSERT_TRUE(sketch.ok());
  Rng rng(6);
  Timestamp t = 1;
  for (int i = 0; i < shape.arrivals; ++i) {
    t += rng.Uniform(3);
    sketch->Add(rng.Uniform(100), t);
  }
  const auto bytes = SerializeSketch(*sketch);
  const size_t header = wire_internal::kSketchHeaderBytes;
  ASSERT_GT(bytes.size(), header);

  // The receiver keeps what the last trial left, so a decode runs in
  // place over a previous sketch or, after a rejection that emptied it,
  // into an empty receiver: the two paths a channel receiver takes.
  std::optional<EcmSketch<Counter>> receiver;
  ASSERT_TRUE(
      DeserializeSketchInto(bytes.data(), bytes.size(), &receiver).ok());
  for (int trial = 0; trial < shape.trials; ++trial) {
    auto corrupted = bytes;
    const size_t pos = header + rng.Uniform(bytes.size() - header);
    corrupted[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    // The checksum follows the magic, as ByteWriter::PutFixed wrote it.
    const uint64_t sum = wire_internal::WireChecksum(
        corrupted.data() + header, corrupted.size() - header);
    std::memcpy(corrupted.data() + sizeof(wire_internal::kSketchMagic), &sum,
                sizeof(sum));

    Status st =
        DeserializeSketchInto(corrupted.data(), corrupted.size(), &receiver);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << "byte " << pos;
      continue;
    }
    const auto& back = *receiver;
    const uint64_t window = back.config().window_len;
    for (uint64_t key : {1u, 42u, 99u}) {
      (void)back.PointQuery(key, window);
      (void)back.PointQuery(key, 1 + window / 10);
    }
    (void)back.EstimateL1(window);
    (void)back.SelfJoin(window);
  }
}

TYPED_TEST(SketchFieldFlipTest, TimeBased) {
  RunRechecksummedFlips<TypeParam>(WindowMode::kTimeBased);
}
TYPED_TEST(SketchFieldFlipTest, CountBased) {
  RunRechecksummedFlips<TypeParam>(WindowMode::kCountBased);
}

TEST(CorruptionTest, CrossTypeBytesRejected) {
  // Bytes of one synopsis type must not parse as another (magic bytes).
  auto eh_bytes = SerializedCounter<ExponentialHistogram>(7);
  ByteReader r1(eh_bytes);
  DeterministicWave dw;
  EXPECT_FALSE(dw.DecodeFrom(&r1).ok());
  ByteReader r2(eh_bytes);
  RandomizedWave rw;
  EXPECT_FALSE(rw.DecodeFrom(&r2).ok());
  ByteReader r3(eh_bytes);
  ExactWindow ew;
  EXPECT_FALSE(ew.DecodeFrom(&r3).ok());
}

TEST(CorruptionTest, EmptyInputRejectedEverywhere) {
  ByteReader r(nullptr, 0);
  ExponentialHistogram eh;
  EXPECT_FALSE(eh.DecodeFrom(&r).ok());
  ByteReader r2(nullptr, 0);
  EXPECT_FALSE(DeserializeEcmConfig(&r2).ok());
}

}  // namespace
}  // namespace ecm
