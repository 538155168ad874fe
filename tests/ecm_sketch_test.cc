// Tests for the ECM-sketch core: point queries under the Theorem-1/3
// bound across counter types and workloads (parameterized sweeps),
// count-based semantics, no-false-negative direction of Count-Min, L1
// estimation (§6.1), clock advancement, memory accounting, and the
// cell-estimate table (every read equals the per-cell oracle after every
// kind of state change).

#include "src/core/ecm_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/baselines/baselines.h"
#include "src/dist/compress.h"
#include "src/dist/serialize.h"
#include "src/stream/generators.h"
#include "src/util/random.h"
#include "tests/test_oracles.h"

namespace ecm {
namespace {

EcmConfig TestConfig(double eps, double delta, uint64_t window,
                     WindowMode mode = WindowMode::kTimeBased) {
  auto cfg = EcmConfig::Create(eps, delta, mode, window, /*seed=*/1234);
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

TEST(EcmSketchTest, EmptySketchAnswersZero) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  EXPECT_EQ(sketch.PointQuery(42, 1000), 0.0);
  EXPECT_EQ(sketch.SelfJoin(1000), 0.0);
  EXPECT_EQ(sketch.EstimateL1(1000), 0.0);
}

TEST(EcmSketchTest, SingleKeyExact) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  for (Timestamp t = 1; t <= 100; ++t) sketch.Add(7, t);
  EXPECT_NEAR(sketch.PointQuery(7, 1000), 100.0, 100 * 0.1 + 1);
  EXPECT_EQ(sketch.l1_lifetime(), 100u);
}

TEST(EcmSketchTest, WeightedAdds) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  sketch.Add(7, 10, 50);
  sketch.Add(9, 20, 5);
  EXPECT_NEAR(sketch.PointQuery(7, 1000), 50.0, 6.0);
  EXPECT_EQ(sketch.l1_lifetime(), 55u);
}

TEST(EcmSketchTest, CreateComputesDimensions) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 500, 9);
  ASSERT_TRUE(sketch.ok());
  EXPECT_GT(sketch->config().width, 0u);
  EXPECT_EQ(sketch->config().depth, 3);
  EXPECT_EQ(sketch->NumCounters(),
            static_cast<size_t>(sketch->config().width) * 3);
}

TEST(EcmSketchTest, CreateRejectsBadEpsilon) {
  EXPECT_FALSE(EcmEh::Create(0.0, 0.1, WindowMode::kTimeBased, 500, 9).ok());
}

// The central accuracy property (Theorems 1 and 3): for every distinct
// in-range key, |est - truth| <= eps * ||a_r||_1 (allowing a small count
// of probabilistic violations and rounding slack).
template <typename Counter>
struct SketchSweepCase {
  using CounterType = Counter;
};

struct SweepSpec {
  double epsilon;
  double skew;
  uint64_t range;
};

template <typename Counter>
void RunPointQuerySweep(const SweepSpec& spec) {
  constexpr uint64_t kWindow = 100000;
  auto sketch = EcmSketch<Counter>::Create(
      spec.epsilon, 0.1, WindowMode::kTimeBased, kWindow, 555,
      OptimizeFor::kPointQueries, /*max_arrivals=*/1 << 18);
  ASSERT_TRUE(sketch.ok());

  ZipfStream::Config zc;
  zc.domain = 5000;
  zc.skew = spec.skew;
  zc.events_per_tick = 1.0;
  zc.seed = 99;
  ZipfStream stream(zc);
  std::vector<StreamEvent> events = stream.Take(60000);
  for (const auto& e : events) sketch->Add(e.key, e.ts);

  Timestamp now = events.back().ts;
  ExactRangeStats exact = ComputeExactRangeStats(events, now, spec.range);
  ASSERT_GT(exact.l1, 0u);
  double budget = spec.epsilon * static_cast<double>(exact.l1) + 2.0;
  size_t violations = 0;
  for (const auto& [key, count] : exact.freqs) {
    double est = sketch->PointQueryAt(key, spec.range, now);
    if (std::abs(est - static_cast<double>(count)) > budget) ++violations;
  }
  // delta = 0.1; allow slightly more for finite-sample noise.
  EXPECT_LE(violations, exact.freqs.size() / 8 + 2)
      << violations << "/" << exact.freqs.size() << " beyond the bound";
}

class EcmEhPointSweep : public ::testing::TestWithParam<SweepSpec> {};
TEST_P(EcmEhPointSweep, Theorem1Bound) {
  RunPointQuerySweep<ExponentialHistogram>(GetParam());
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, EcmEhPointSweep,
    ::testing::Values(SweepSpec{0.05, 1.0, 10000}, SweepSpec{0.1, 1.0, 10000},
                      SweepSpec{0.25, 1.0, 10000}, SweepSpec{0.1, 0.5, 10000},
                      SweepSpec{0.1, 1.3, 10000}, SweepSpec{0.1, 1.0, 1000},
                      SweepSpec{0.1, 1.0, 100000}));

class EcmDwPointSweep : public ::testing::TestWithParam<SweepSpec> {};
TEST_P(EcmDwPointSweep, Theorem1Bound) {
  RunPointQuerySweep<DeterministicWave>(GetParam());
}
INSTANTIATE_TEST_SUITE_P(Sweep, EcmDwPointSweep,
                         ::testing::Values(SweepSpec{0.1, 1.0, 10000},
                                           SweepSpec{0.25, 0.8, 5000},
                                           SweepSpec{0.05, 1.0, 50000}));

class EcmRwPointSweep : public ::testing::TestWithParam<SweepSpec> {};
TEST_P(EcmRwPointSweep, Theorem3Bound) {
  RunPointQuerySweep<RandomizedWave>(GetParam());
}
INSTANTIATE_TEST_SUITE_P(Sweep, EcmRwPointSweep,
                         ::testing::Values(SweepSpec{0.1, 1.0, 10000},
                                           SweepSpec{0.2, 1.0, 5000}));

TEST(EcmSketchTest, ExactCounterIsolatesCmError) {
  // With exact windows, the only error source is hashing: estimates never
  // fall below the truth.
  EcmExact sketch(TestConfig(0.1, 0.05, 100000));
  ZipfStream::Config zc;
  zc.domain = 2000;
  zc.skew = 1.0;
  zc.seed = 31;
  ZipfStream stream(zc);
  auto events = stream.Take(20000);
  for (const auto& e : events) sketch.Add(e.key, e.ts);
  Timestamp now = events.back().ts;
  auto exact = ComputeExactRangeStats(events, now, 100000);
  for (const auto& [key, count] : exact.freqs) {
    EXPECT_GE(sketch.PointQueryAt(key, 100000, now) + 1e-9,
              static_cast<double>(count));
  }
}

TEST(EcmSketchTest, CountBasedLastNArrivals) {
  auto cfg = TestConfig(0.05, 0.05, /*window=*/500, WindowMode::kCountBased);
  EcmSketch<ExponentialHistogram> sketch(cfg);
  // 2000 arrivals; the final 500 are all key 9.
  for (int i = 0; i < 1500; ++i) sketch.Add(1, /*ts ignored*/ 0);
  for (int i = 0; i < 500; ++i) sketch.Add(9, 0);
  double est9 = sketch.PointQuery(9, 500);
  double est1 = sketch.PointQuery(1, 500);
  EXPECT_NEAR(est9, 500.0, 500 * 0.06 + 1);
  EXPECT_LE(est1, 500 * 0.06 + 1);  // key 1 left the window
}

TEST(EcmSketchTest, CountBasedPartialWindow) {
  auto cfg = TestConfig(0.05, 0.05, 1000, WindowMode::kCountBased);
  EcmSketch<ExponentialHistogram> sketch(cfg);
  for (int i = 0; i < 600; ++i) sketch.Add(i % 2 ? 5 : 6, 0);
  // Of the last 100 arrivals, 50 are key 5.
  EXPECT_NEAR(sketch.PointQuery(5, 100), 50.0, 50 * 0.06 + 2);
}

TEST(EcmSketchTest, EstimateL1TracksWindowVolume) {
  EcmEh sketch(TestConfig(0.1, 0.1, 10000));
  ZipfStream::Config zc;
  zc.domain = 1000;
  zc.skew = 1.0;
  zc.seed = 13;
  ZipfStream stream(zc);
  auto events = stream.Take(30000);
  for (const auto& e : events) sketch.Add(e.key, e.ts);
  Timestamp now = events.back().ts;
  auto exact = ComputeExactRangeStats(events, now, 10000);
  double est = sketch.EstimateL1At(10000, now);
  EXPECT_NEAR(est, static_cast<double>(exact.l1), exact.l1 * 0.12 + 2);
}

TEST(EcmSketchTest, AdvanceToExpiresContent) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  for (Timestamp t = 1; t <= 500; ++t) sketch.Add(3, t);
  size_t before = sketch.MemoryBytes();
  sketch.AdvanceTo(10000);  // everything slides out
  EXPECT_EQ(sketch.PointQuery(3, 1000), 0.0);
  // The flat bucket arenas are retained for reuse (expiry never touches
  // the allocator), so the footprint stays flat rather than shrinking.
  EXPECT_LE(sketch.MemoryBytes(), before);
}

TEST(EcmSketchTest, RangeQueriesAreMonotoneInRange) {
  EcmEh sketch(TestConfig(0.1, 0.1, 100000));
  Rng rng(21);
  Timestamp t = 1;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(3);
    sketch.Add(rng.Uniform(100), t);
  }
  // Larger ranges cover supersets; estimates should not decrease (modulo
  // half-bucket noise on the boundary).
  double prev = 0.0;
  for (uint64_t range : {100ULL, 1000ULL, 10000ULL, 100000ULL}) {
    double est = sketch.PointQuery(5, range);
    EXPECT_GE(est, prev * 0.9);
    prev = est;
  }
}

TEST(EcmSketchTest, MemoryDominatedByCounters) {
  EcmEh sketch(TestConfig(0.1, 0.1, 100000));
  size_t empty_mem = sketch.MemoryBytes();
  Rng rng(2);
  Timestamp t = 1;
  for (int i = 0; i < 50000; ++i) {
    t += rng.Uniform(2);
    sketch.Add(rng.Uniform(10000), t);
  }
  EXPECT_GT(sketch.MemoryBytes(), empty_mem);
}

TEST(EcmSketchTest, RowEstimatesSumToL1PerRow) {
  EcmEh sketch(TestConfig(0.1, 0.1, 100000));
  for (Timestamp t = 1; t <= 1000; ++t) sketch.Add(t % 50, t);
  for (int row = 0; row < sketch.config().depth; ++row) {
    std::vector<double> estimates(sketch.config().width);
    sketch.EstimateRowAt(row, 100000, sketch.Now(), estimates.data());
    double sum = 0.0;
    for (double v : estimates) sum += v;
    EXPECT_NEAR(sum, 1000.0, 1000 * 0.1 + 2);
  }
}

TEST(EcmSketchTest, DeterministicAcrossIdenticalRuns) {
  auto build = [] {
    EcmEh sketch(TestConfig(0.1, 0.1, 10000));
    for (Timestamp t = 1; t <= 5000; ++t) sketch.Add(t * 17 % 300, t);
    return sketch;
  };
  EcmEh a = build(), b = build();
  for (uint64_t key = 0; key < 300; ++key) {
    EXPECT_EQ(a.PointQuery(key, 10000), b.PointQuery(key, 10000));
  }
}

// --- cell-estimate table -----------------------------------------------------

// What one table entry must equal: the scan oracle for the counters with an
// indexed Estimate (EH, RW). The deterministic wave has a single Estimate
// path, so it is its own reference.
template <typename Counter>
double CellReference(const Counter& c, Timestamp now, uint64_t range) {
  if constexpr (std::is_same_v<Counter, DeterministicWave>) {
    return c.Estimate(now, range);
  } else {
    return oracle::ScanEstimate(c, now, range);
  }
}

template <typename Counter>
std::vector<double> ReferenceCells(const EcmSketch<Counter>& s, Timestamp now,
                                   uint64_t range) {
  const EcmConfig& cfg = s.config();
  std::vector<double> cells;
  for (int j = 0; j < cfg.depth; ++j) {
    for (uint32_t i = 0; i < cfg.width; ++i) {
      cells.push_back(CellReference(s.CounterAt(j, i), now, range));
    }
  }
  return cells;
}

// Every read of `s` at (now, range) against the per-cell oracle: point,
// rows and a 3-key batch with the table as the last state change left it,
// a 2w-key batch (which fills the table), the same point reads again (now
// from the table), then L1, every EstimateRowAt, the self-join and the
// inner product with `other`. The L1, row, self-join and inner-product
// sums add the oracle cells in row-major order, as the sketch does.
template <typename Counter>
void ExpectReadsMatchCells(const EcmSketch<Counter>& s,
                           const EcmSketch<Counter>& other, Timestamp now,
                           uint64_t range, const std::string& after) {
  SCOPED_TRACE("after " + after + ", now " + std::to_string(now) +
               ", range " + std::to_string(range));
  const EcmConfig& cfg = s.config();
  const uint32_t w = cfg.width;
  const std::vector<double> cells = ReferenceCells(s, now, range);
  const std::vector<double> other_cells = ReferenceCells(other, now, range);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 2 * w; ++k) keys.push_back(k * 37 % 211);
  std::vector<std::vector<double>> rows_ref(keys.size());
  std::vector<double> point_ref(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    uint32_t cols[kMaxSketchDepth];
    s.RowBuckets(keys[k], cols);
    point_ref[k] = std::numeric_limits<double>::infinity();
    for (int j = 0; j < cfg.depth; ++j) {
      rows_ref[k].push_back(cells[static_cast<size_t>(j) * w + cols[j]]);
      point_ref[k] = std::min(point_ref[k], rows_ref[k].back());
    }
  }
  auto point_reads = [&](const char* table) {
    SCOPED_TRACE(table);
    constexpr size_t kFew = 3;
    for (size_t k = 0; k < kFew; ++k) {
      EXPECT_EQ(s.PointQueryAt(keys[k], range, now), point_ref[k]);
      double rows[kMaxSketchDepth];
      s.PointQueryRowsAt(keys[k], range, now, rows);
      for (int j = 0; j < cfg.depth; ++j) EXPECT_EQ(rows[j], rows_ref[k][j]);
    }
    double few[kFew];
    s.PointQueryBatchAt(keys.data(), kFew, range, now, few);
    for (size_t k = 0; k < kFew; ++k) EXPECT_EQ(few[k], point_ref[k]);
  };
  point_reads("table as left");
  std::vector<double> batch(keys.size());
  s.PointQueryBatchAt(keys.data(), keys.size(), range, now, batch.data());
  for (size_t k = 0; k < keys.size(); ++k) EXPECT_EQ(batch[k], point_ref[k]);
  point_reads("table warm");

  double l1 = 0.0;
  for (double c : cells) l1 += c;
  EXPECT_EQ(s.EstimateL1At(range, now), l1 / cfg.depth);
  double self_ref = std::numeric_limits<double>::infinity();
  double inner_ref = std::numeric_limits<double>::infinity();
  std::vector<double> row(w);
  for (int j = 0; j < cfg.depth; ++j) {
    s.EstimateRowAt(j, range, now, row.data());
    double self_row = 0.0, inner_row = 0.0;
    for (uint32_t i = 0; i < w; ++i) {
      const size_t c = static_cast<size_t>(j) * w + i;
      EXPECT_EQ(row[i], cells[c]);
      self_row += cells[c] * cells[c];
      inner_row += cells[c] * other_cells[c];
    }
    self_ref = std::min(self_ref, self_row);
    inner_ref = std::min(inner_ref, inner_row);
  }
  EXPECT_EQ(s.InnerProductAt(s, range, now).value(), self_ref);
  EXPECT_EQ(s.InnerProductAt(other, range, now).value(), inner_ref);
  if (now == s.Now()) {
    EXPECT_EQ(s.SelfJoin(range), self_ref);
  }
  if (now == std::max(s.Now(), other.Now())) {
    EXPECT_EQ(s.InnerProduct(other, range).value(), inner_ref);
  }
}

template <typename Counter>
void RunCellTableChecks(WindowMode mode) {
  constexpr uint64_t kWin = 500;
  constexpr auto family = std::is_same_v<Counter, RandomizedWave>
                              ? CounterFamily::kRandomized
                              : CounterFamily::kDeterministic;
  auto cfg = EcmConfig::Create(0.2, 0.1, mode, kWin, /*seed=*/99,
                               OptimizeFor::kPointQueries, family,
                               /*max_arrivals=*/1 << 14);
  ASSERT_TRUE(cfg.ok());
  using Sketch = EcmSketch<Counter>;
  const bool timed = mode == WindowMode::kTimeBased;
  Rng rng(5);
  Timestamp t = 1;
  auto feed = [&](Sketch* x, int events) {
    for (int e = 0; e < events; ++e) {
      t += rng.Uniform(3);
      x->Add(rng.Uniform(150), t, 1 + rng.Uniform(4));
    }
  };
  // `other` is fed first and less, so its clock trails every read below.
  Sketch other(*cfg), s(*cfg);
  feed(&other, 300);
  feed(&s, 600);
  // A fixed read clock at or ahead of every state change below (which
  // move the clock by at most 45), so a table warmed at (q, ranges[0])
  // before a change would be served stale if the change did not
  // invalidate it. ranges[0] reaches back past the changes' arrivals.
  const Timestamp q = s.Now() + 60;
  const uint64_t ranges[] = {80, kWin};
  auto warm = [&](const Sketch& x) {
    for (uint64_t range : ranges) x.EstimateL1At(range, q);
    (void)x.InnerProductAt(x, ranges[0], q);
  };
  auto check = [&](const Sketch& x, const std::string& after) {
    for (uint64_t range : ranges) {
      ExpectReadsMatchCells(x, other, q, range, after);
      ExpectReadsMatchCells(x, other, x.Now(), range, after);
    }
  };

  check(s, "ingest");
  warm(s);
  s.Add(37, t + 1, 3);  // the second point-read key
  check(s, "Add");
  if (timed) {
    warm(s);
    s.AdvanceTo(s.Now() + 2);
    check(s, "AdvanceTo");
  }
  warm(s);
  s.RestoreClock(s.Now() + 1, s.l1_lifetime());
  check(s, "RestoreClock");
  warm(s);
  s.CounterAt(1, 2).Add(s.Now(), 9);
  check(s, "mutable CounterAt");

  // In-place decode over a sketch with a warm table.
  Sketch donor = s;
  if (timed) t = s.Now();
  feed(&donor, 10);
  std::optional<Sketch> held(s);
  warm(*held);
  const std::vector<uint8_t> image = SerializeSketch(donor);
  ASSERT_TRUE(DeserializeSketchInto(image.data(), image.size(), &held).ok());
  check(*held, "DeserializeSketchInto");
  SketchReceiver<Counter> receiver(CompressionOptions{CompressionMode::kFull});
  const std::vector<uint8_t> first = SerializeSketch(s);
  auto got =
      receiver.Receive(SketchWireKind::kFull, first.data(), first.size());
  ASSERT_TRUE(got.ok());
  warm(**got);
  got = receiver.Receive(SketchWireKind::kFull, image.data(), image.size());
  ASSERT_TRUE(got.ok());
  check(**got, "SketchReceiver::Receive");

  // Copies and moves carry the table with the counters it describes.
  warm(s);
  Sketch copy = s;
  check(copy, "copy construction");
  Sketch assigned = donor;
  warm(assigned);
  assigned = s;
  check(assigned, "copy assignment");
  warm(copy);
  Sketch moved = std::move(copy);
  check(moved, "move construction");
  Sketch move_assigned = donor;
  warm(move_assigned);
  warm(moved);
  move_assigned = std::move(moved);
  check(move_assigned, "move assignment");
}

template <typename Counter>
class CellTableTest : public ::testing::Test {};
using TableCounters =
    ::testing::Types<ExponentialHistogram, DeterministicWave, RandomizedWave>;
TYPED_TEST_SUITE(CellTableTest, TableCounters);

TYPED_TEST(CellTableTest, ReadsMatchCellsAfterEveryChangeTimeBased) {
  RunCellTableChecks<TypeParam>(WindowMode::kTimeBased);
}

TYPED_TEST(CellTableTest, ReadsMatchCellsAfterEveryChangeCountBased) {
  RunCellTableChecks<TypeParam>(WindowMode::kCountBased);
}

TEST(EcmSketchTest, CellTableCountsInMemoryOnceAllocated) {
  EcmEh sketch(TestConfig(0.1, 0.1, 1000));
  for (Timestamp t = 1; t <= 200; ++t) sketch.Add(t % 40, t);
  const size_t before = sketch.MemoryBytes();
  // Point reads below the width never allocate the table ...
  EXPECT_GE(sketch.PointQuery(3, 1000), 0.0);
  EXPECT_EQ(sketch.MemoryBytes(), before);
  // ... the first whole-sketch read adds exactly w × d doubles, and later
  // ones reuse them.
  EXPECT_GT(sketch.SelfJoin(1000), 0.0);
  const size_t table_bytes = sketch.NumCounters() * sizeof(double);
  EXPECT_EQ(sketch.MemoryBytes(), before + table_bytes);
  sketch.Add(5, 201);
  EXPECT_GT(sketch.EstimateL1(500), 0.0);
  EXPECT_EQ(sketch.MemoryBytes(), before + table_bytes);

  // Merge reserves the table of the sketch it builds, so the view's first
  // whole read allocates nothing; the reserved table is not valid yet.
  auto merged = EcmEh::Merge({&sketch}, 0.1);
  ASSERT_TRUE(merged.ok());
  const size_t merged_bytes = merged->MemoryBytes();
  ExpectReadsMatchCells(*merged, *merged, merged->Now(), 500, "Merge");
  EXPECT_EQ(merged->MemoryBytes(), merged_bytes);
}

}  // namespace
}  // namespace ecm
