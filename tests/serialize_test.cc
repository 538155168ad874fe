// Tests for whole-sketch wire serialization: round-trip equivalence for
// every counter type, corruption rejection, and wire-size sanity (the
// numbers the distributed benches account as network transfer).

#include "src/dist/serialize.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>

#include "bench/baselines/baselines.h"
#include "src/stream/generators.h"
#include "src/util/random.h"

namespace ecm {
namespace {

template <typename Counter>
void FillSketch(EcmSketch<Counter>* sketch, int n, uint64_t seed) {
  ZipfStream::Config zc;
  zc.domain = 500;
  zc.skew = 1.0;
  zc.seed = seed;
  ZipfStream stream(zc);
  for (const auto& e : stream.Take(n)) sketch->Add(e.key, e.ts);
}

TEST(SerializeConfigTest, RoundTrip) {
  auto cfg = EcmConfig::Create(0.07, 0.03, WindowMode::kCountBased, 12345,
                               999, OptimizeFor::kSelfJoinQueries);
  ASSERT_TRUE(cfg.ok());
  ByteWriter w;
  SerializeEcmConfig(*cfg, &w);
  ByteReader r(w.bytes());
  auto back = DeserializeEcmConfig(&r);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->mode, cfg->mode);
  EXPECT_EQ(back->window_len, cfg->window_len);
  EXPECT_EQ(back->width, cfg->width);
  EXPECT_EQ(back->depth, cfg->depth);
  EXPECT_EQ(back->seed, cfg->seed);
  EXPECT_DOUBLE_EQ(back->epsilon_sw, cfg->epsilon_sw);
  EXPECT_DOUBLE_EQ(back->epsilon_cm, cfg->epsilon_cm);
  EXPECT_TRUE(back->CompatibleWith(*cfg));
}

TEST(SerializeConfigTest, RejectsGarbage) {
  std::vector<uint8_t> junk = {0x01, 0x02, 0x03};
  ByteReader r(junk.data(), junk.size());
  EXPECT_FALSE(DeserializeEcmConfig(&r).ok());
}

TEST(SerializeConfigTest, RejectsRetiredModuloReduction) {
  // Byte 1 named the retired `raw % width` bucket mapping; the decoder
  // implements only fast range (2), so a blob carrying 1 is corrupt, not
  // misread.
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 7);
  ASSERT_TRUE(cfg.ok());
  ByteWriter w;
  SerializeEcmConfig(*cfg, &w);
  std::vector<uint8_t> bytes = w.bytes();
  // Magic (4 bytes), version, then the reduction byte.
  ASSERT_EQ(bytes[5], static_cast<uint8_t>(HashReduction::kFastRange));
  {
    ByteReader r(bytes.data(), bytes.size());
    EXPECT_TRUE(DeserializeEcmConfig(&r).ok());
  }
  bytes[5] = 1;
  ByteReader r(bytes.data(), bytes.size());
  auto back = DeserializeEcmConfig(&r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(SerializeConfigTest, RejectsUnversionedLegacyEncoding) {
  // Pre-versioning blobs put the mode byte right after the magic; the
  // explicit wire version must reject them instead of misreading buckets.
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 7);
  ASSERT_TRUE(cfg.ok());
  ByteWriter w;
  SerializeEcmConfig(*cfg, &w);
  auto bytes = w.bytes();
  // Strip the version + reduction bytes to fake the legacy layout.
  std::vector<uint8_t> legacy(bytes.begin(), bytes.begin() + 4);
  legacy.insert(legacy.end(), bytes.begin() + 6, bytes.end());
  ByteReader r(legacy.data(), legacy.size());
  EXPECT_FALSE(DeserializeEcmConfig(&r).ok());
}

template <typename Counter>
void RunSketchRoundTrip() {
  auto sketch = EcmSketch<Counter>::Create(
      0.1, 0.1, WindowMode::kTimeBased, 50000, 42,
      OptimizeFor::kPointQueries, /*max_arrivals=*/1 << 16);
  ASSERT_TRUE(sketch.ok());
  FillSketch<Counter>(&*sketch, 10000, 3);

  auto bytes = SerializeSketch(*sketch);
  auto back = DeserializeSketch<Counter>(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->l1_lifetime(), sketch->l1_lifetime());
  EXPECT_EQ(back->Now(), sketch->Now());
  for (uint64_t key = 0; key < 500; key += 13) {
    for (uint64_t range : {1000u, 50000u}) {
      EXPECT_EQ(back->PointQuery(key, range), sketch->PointQuery(key, range))
          << "key " << key << " range " << range;
    }
  }
}

TEST(SerializeSketchTest, RoundTripEh) {
  RunSketchRoundTrip<ExponentialHistogram>();
}
TEST(SerializeSketchTest, RoundTripDw) {
  RunSketchRoundTrip<DeterministicWave>();
}
TEST(SerializeSketchTest, RoundTripRw) { RunSketchRoundTrip<RandomizedWave>(); }
TEST(SerializeSketchTest, RoundTripExact) { RunSketchRoundTrip<ExactWindow>(); }

// Layout-independence proof for the flat ring-buffer bucket storage: the
// wire encoding is a level log of bucket end timestamps, so a histogram
// built through the batch weighted-insert path must round-trip through
// the unchanged format and answer every query identically.
TEST(SerializeSketchTest, RoundTripEhWeightedInserts) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 50000, 42);
  ASSERT_TRUE(sketch.ok());
  ZipfStream::Config zc;
  zc.domain = 200;
  zc.skew = 1.0;
  zc.seed = 9;
  ZipfStream stream(zc);
  Rng rng(9);
  for (const auto& e : stream.Take(3000)) {
    sketch->Add(e.key, e.ts, 1 + rng.Uniform(10'000));
  }

  auto bytes = SerializeSketch(*sketch);
  auto back = DeserializeSketch<ExponentialHistogram>(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->l1_lifetime(), sketch->l1_lifetime());
  for (uint64_t key = 0; key < 200; key += 7) {
    for (uint64_t range : {1000u, 50000u}) {
      EXPECT_EQ(back->PointQuery(key, range), sketch->PointQuery(key, range))
          << "key " << key << " range " << range;
    }
  }
  // Re-serialization is byte-stable (same bucket log either way).
  EXPECT_EQ(SerializeSketch(*back), bytes);
}

TEST(SerializeSketchTest, DeserializedSketchIsMergeable) {
  auto a = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 50000, 7);
  ASSERT_TRUE(a.ok());
  FillSketch<ExponentialHistogram>(&*a, 5000, 1);
  auto bytes = SerializeSketch(*a);
  auto b = DeserializeSketch<ExponentialHistogram>(bytes);
  ASSERT_TRUE(b.ok());
  auto merged = EcmEh::Merge({&*a, &*b}, a->config().epsilon_sw);
  ASSERT_TRUE(merged.ok()) << merged.status();
  // a ⊕ a doubles every estimate (within merge error).
  double single = a->PointQuery(1, 50000);
  double doubled = merged->PointQuery(1, 50000);
  EXPECT_NEAR(doubled, 2 * single, 2 * single * 0.3 + 3.0);
}

TEST(SerializeSketchTest, TruncationRejected) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 50000, 9);
  ASSERT_TRUE(sketch.ok());
  FillSketch<ExponentialHistogram>(&*sketch, 2000, 2);
  auto bytes = SerializeSketch(*sketch);
  bytes.resize(bytes.size() / 3);
  EXPECT_FALSE(DeserializeSketch<ExponentialHistogram>(bytes).ok());
}

// A propagation receiver decodes each image into the sketch it already
// holds. The result must be the fresh decode in every observable way:
// the same answers, the same re-serialized bytes and the same memory.
TEST(SerializeSketchTest, DecodeIntoHeldSketchMatchesFreshDecode) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 50000, 11);
  ASSERT_TRUE(sketch.ok());
  std::optional<EcmEh> held;
  ZipfStream::Config zc;
  zc.domain = 500;
  zc.seed = 5;
  ZipfStream stream(zc);
  // Growing, then sliding: levels fill, grow segments and empty again.
  for (int round = 0; round < 12; ++round) {
    for (const auto& e : stream.Take(round < 6 ? 3000 : 300)) {
      sketch->Add(e.key, e.ts + static_cast<Timestamp>(round) * 20000);
    }
    const std::vector<uint8_t> bytes = SerializeSketch(*sketch);
    ASSERT_TRUE(DeserializeSketchInto(bytes.data(), bytes.size(), &held).ok());
    auto fresh = DeserializeSketch<ExponentialHistogram>(bytes);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(SerializeSketch(*held), bytes) << "round " << round;
    EXPECT_EQ(held->MemoryBytes(), fresh->MemoryBytes()) << "round " << round;
    for (uint64_t key = 0; key < 500; key += 17) {
      EXPECT_EQ(held->PointQuery(key, 50000), fresh->PointQuery(key, 50000));
    }
  }

  // An image of another config replaces the held sketch outright.
  auto other = EcmEh::Create(0.2, 0.1, WindowMode::kTimeBased, 1000, 3);
  ASSERT_TRUE(other.ok());
  FillSketch<ExponentialHistogram>(&*other, 500, 4);
  const std::vector<uint8_t> other_bytes = SerializeSketch(*other);
  ASSERT_TRUE(DeserializeSketchInto(other_bytes.data(), other_bytes.size(),
                                    &held)
                  .ok());
  EXPECT_TRUE(held->config() == other->config());
  EXPECT_EQ(SerializeSketch(*held), other_bytes);
}

TEST(SerializeSketchTest, DecodeIntoFailureLeavesHeldSketchOrEmptiesIt) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 50000, 13);
  ASSERT_TRUE(sketch.ok());
  FillSketch<ExponentialHistogram>(&*sketch, 2000, 6);
  const std::vector<uint8_t> bytes = SerializeSketch(*sketch);
  std::optional<EcmEh> held;
  ASSERT_TRUE(DeserializeSketchInto(bytes.data(), bytes.size(), &held).ok());

  // A flipped payload bit fails the checksum before any counter is
  // touched: the held sketch survives unchanged.
  std::vector<uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_EQ(DeserializeSketchInto(flipped.data(), flipped.size(), &held).code(),
            StatusCode::kCorruption);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(SerializeSketch(*held), bytes);

  // A well-checksummed image whose counters are malformed fails mid-way
  // and empties the held sketch rather than leaving a partial decode.
  std::vector<uint8_t> malformed = bytes;
  malformed.push_back(0);  // trailing byte after the last counter
  const uint64_t checksum = wire_internal::WireChecksum(
      malformed.data() + wire_internal::kSketchHeaderBytes,
      malformed.size() - wire_internal::kSketchHeaderBytes);
  std::memcpy(malformed.data() + 4, &checksum, sizeof(checksum));
  EXPECT_EQ(
      DeserializeSketchInto(malformed.data(), malformed.size(), &held).code(),
      StatusCode::kCorruption);
  EXPECT_FALSE(held.has_value());
}

// Every counter has one decode, DecodeFrom, which refills a held counter
// in place. Whatever the held receiver went through before, the sketch it
// decodes must be the fresh decode of the same bytes in every observable
// way: the same answers, the same re-serialized bytes and the same memory.
template <typename Counter>
class InPlaceDecodeTest : public ::testing::Test {};
using WireCounters = ::testing::Types<ExponentialHistogram, DeterministicWave,
                                      RandomizedWave, ExactWindow>;
TYPED_TEST_SUITE(InPlaceDecodeTest, WireCounters);

template <typename Counter>
void ExpectHeldDecodeIsFresh(const std::vector<uint8_t>& bytes,
                             std::optional<EcmSketch<Counter>>* held) {
  ASSERT_TRUE(DeserializeSketchInto(bytes.data(), bytes.size(), held).ok());
  auto fresh = DeserializeSketch<Counter>(bytes);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const EcmSketch<Counter>& back = **held;
  EXPECT_EQ(SerializeSketch(back), bytes);
  EXPECT_EQ(back.MemoryBytes(), fresh->MemoryBytes());
  const uint64_t window = back.config().window_len;
  for (uint64_t key = 0; key < 500; key += 23) {
    for (uint64_t range : {uint64_t{1}, window / 50, window / 5, window}) {
      EXPECT_EQ(back.PointQuery(key, range), fresh->PointQuery(key, range))
          << "key " << key << " range " << range;
    }
  }
}

TYPED_TEST(InPlaceDecodeTest, HeldReceiverMatchesFreshDecode) {
  using Counter = TypeParam;
  auto sketch = EcmSketch<Counter>::Create(
      0.1, 0.1, WindowMode::kTimeBased, 50000, 11,
      OptimizeFor::kPointQueries, /*max_arrivals=*/1 << 16);
  ASSERT_TRUE(sketch.ok());
  std::optional<EcmSketch<Counter>> held;
  ZipfStream::Config zc;
  zc.domain = 500;
  zc.seed = 5;
  ZipfStream stream(zc);
  // One config at several fill levels: the levels fill, then the window
  // slides past most of what they held.
  std::vector<uint8_t> bytes;
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (const auto& e : stream.Take(round < 4 ? 2000 : 200)) {
      sketch->Add(e.key, e.ts + static_cast<Timestamp>(round) * 20000);
    }
    bytes = SerializeSketch(*sketch);
    ExpectHeldDecodeIsFresh(bytes, &held);
  }

  // An image of another config.
  auto other = EcmSketch<Counter>::Create(
      0.2, 0.2, WindowMode::kTimeBased, 1000, 3, OptimizeFor::kPointQueries,
      /*max_arrivals=*/1 << 10);
  ASSERT_TRUE(other.ok());
  FillSketch<Counter>(&*other, 800, 4);
  const std::vector<uint8_t> other_bytes = SerializeSketch(*other);
  {
    SCOPED_TRACE("other config");
    ExpectHeldDecodeIsFresh(other_bytes, &held);
  }

  // A truncated image is rejected. Cut short under its old checksum, it
  // fails before any counter and the held sketch survives; cut short
  // behind a valid checksum, it fails inside a counter and empties the
  // receiver. The next good image decodes into it again.
  std::vector<uint8_t> truncated = bytes;
  truncated.resize(truncated.size() * 3 / 5);
  EXPECT_EQ(
      DeserializeSketchInto(truncated.data(), truncated.size(), &held).code(),
      StatusCode::kCorruption);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(SerializeSketch(*held), other_bytes);
  const size_t header = wire_internal::kSketchHeaderBytes;
  const uint64_t sum = wire_internal::WireChecksum(
      truncated.data() + header, truncated.size() - header);
  std::memcpy(truncated.data() + sizeof(wire_internal::kSketchMagic), &sum,
              sizeof(sum));
  EXPECT_EQ(
      DeserializeSketchInto(truncated.data(), truncated.size(), &held).code(),
      StatusCode::kCorruption);
  EXPECT_FALSE(held.has_value());
  {
    SCOPED_TRACE("after a rejected image");
    ExpectHeldDecodeIsFresh(bytes, &held);
  }
}

// The sketch layer rebuilds a receiver of another config before its cells
// decode, so a held counter meets a header of another shape, or a failed
// decode's partial state, only at the counter layer: a counter shaped for
// one config decodes cells of another, a truncated cell, and a good cell
// again, each matching a fresh counter's decode of the same bytes.
TYPED_TEST(InPlaceDecodeTest, HeldCounterMatchesFreshDecode) {
  using Counter = TypeParam;
  auto small = EcmSketch<Counter>::Create(
      0.2, 0.2, WindowMode::kTimeBased, 1000, 3, OptimizeFor::kPointQueries,
      /*max_arrivals=*/1 << 10);
  auto large = EcmSketch<Counter>::Create(
      0.1, 0.1, WindowMode::kTimeBased, 50000, 11,
      OptimizeFor::kPointQueries, /*max_arrivals=*/1 << 16);
  ASSERT_TRUE(small.ok() && large.ok());
  FillSketch<Counter>(&*small, 800, 4);
  FillSketch<Counter>(&*large, 5000, 5);

  Counter cell(MakeCounterConfig<Counter>(small->config()));
  for (const auto* source : {&*large, &*small, &*large}) {
    ByteWriter w;
    source->CounterAt(0, 0).SerializeTo(&w);
    const std::vector<uint8_t>& image = w.bytes();
    ByteReader cut(image.data(), image.size() / 2);
    EXPECT_FALSE(cell.DecodeFrom(&cut).ok());

    ByteReader r(image);
    ASSERT_TRUE(cell.DecodeFrom(&r).ok());
    EXPECT_TRUE(r.exhausted());
    Counter fresh;
    ByteReader fresh_r(image);
    ASSERT_TRUE(fresh.DecodeFrom(&fresh_r).ok());
    ByteWriter again;
    cell.SerializeTo(&again);
    EXPECT_EQ(again.bytes(), image);
    EXPECT_EQ(cell.MemoryBytes(), fresh.MemoryBytes());
    const Timestamp now = source->Now();
    const uint64_t window = source->config().window_len;
    for (uint64_t range : {uint64_t{1}, window / 50, window / 5, window}) {
      EXPECT_EQ(cell.Estimate(now, range), fresh.Estimate(now, range))
          << "range " << range;
    }
  }
}

TEST(SerializeSketchTest, WireSizeOrdersOfMagnitude) {
  // The paper's headline resource result: at equal epsilon, the RW sketch
  // is at least an order of magnitude bigger on the wire than EH.
  constexpr double kEps = 0.1;
  auto eh = EcmEh::Create(kEps, 0.1, WindowMode::kTimeBased, 100000, 5);
  auto rw = EcmRw::Create(kEps, 0.1, WindowMode::kTimeBased, 100000, 5,
                          OptimizeFor::kPointQueries, 1 << 16);
  ASSERT_TRUE(eh.ok() && rw.ok());
  FillSketch<ExponentialHistogram>(&*eh, 30000, 4);
  FillSketch<RandomizedWave>(&*rw, 30000, 4);
  size_t eh_bytes = SerializeSketch(*eh).size();
  size_t rw_bytes = SerializeSketch(*rw).size();
  EXPECT_GT(rw_bytes, eh_bytes * 10) << "EH=" << eh_bytes
                                     << " RW=" << rw_bytes;
}

TEST(SerializeSketchTest, EmptySketchHasSmallWire) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 1);
  ASSERT_TRUE(sketch.ok());
  EXPECT_LT(SerializeSketch(*sketch).size(), 4096u);
}

}  // namespace
}  // namespace ecm
