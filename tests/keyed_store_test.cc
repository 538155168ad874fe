// Keyed counter store tests: an oracle differential against a naive
// map<key, ExponentialHistogram> reference driven through the store's
// observers (bit-identity for admitted keys, including variance),
// sketch-guarded admission/eviction behaviour, the O(expiring keys)
// idle-tick property, and randomized fuzz of the robin-hood table's
// incremental rehash racing wheel-driven eviction.

#include "src/engine/keyed_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/engine/continuous.h"
#include "src/util/random.h"
#include "src/window/exponential_histogram.h"

namespace ecm {
namespace {

using EcmEh = EcmSketch<ExponentialHistogram>;

EcmConfig SketchConfig(double eps, uint64_t window) {
  auto cfg = EcmConfig::Create(eps, 0.1, WindowMode::kTimeBased, window,
                               /*seed=*/4242);
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

// ---------------------------------------------------------------------------
// ExpiryWheel
// ---------------------------------------------------------------------------

TEST(ExpiryWheelTest, FiresInDeadlineOrderAtExactTimes) {
  ExpiryWheel wheel(/*start=*/17);
  constexpr uint32_t kItems = 2000;
  wheel.EnsureItems(kItems);
  Rng rng(0x57EE1001);
  std::vector<Timestamp> deadline(kItems);
  for (uint32_t i = 0; i < kItems; ++i) {
    // Mix of near, mid and very far deadlines to cover all wheel levels.
    const int shape = static_cast<int>(rng.Uniform(3));
    Timestamp d = 18;
    if (shape == 0) d += rng.Uniform(1 << 10);
    if (shape == 1) d += rng.Uniform(1 << 22);
    if (shape == 2) d += rng.Uniform(1ULL << 44);
    deadline[i] = d;
    wheel.Schedule(i, d);
  }
  EXPECT_EQ(wheel.scheduled_count(), kItems);

  std::vector<std::pair<Timestamp, uint32_t>> fired;
  auto fire = [&](uint32_t item) { fired.emplace_back(wheel.now(), item); };
  Timestamp now = 17;
  while (wheel.scheduled_count() > 0) {
    now += 1 + rng.Uniform(1ULL << 40);
    wheel.Advance(now, fire);
  }
  ASSERT_EQ(fired.size(), kItems);
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].first, deadline[fired[i].second]) << "item " << i;
    if (i > 0) {
      EXPECT_LE(fired[i - 1].first, fired[i].first);
    }
  }
}

TEST(ExpiryWheelTest, CancelAndRescheduleRespected) {
  ExpiryWheel wheel;
  wheel.EnsureItems(8);
  wheel.Schedule(0, 100);
  wheel.Schedule(1, 100);
  wheel.Schedule(2, 50);
  wheel.Cancel(1);
  wheel.Schedule(2, 900);  // reschedule away from 50
  EXPECT_TRUE(wheel.IsScheduled(0));
  EXPECT_FALSE(wheel.IsScheduled(1));
  EXPECT_EQ(wheel.DeadlineOf(2), 900u);

  std::vector<uint32_t> fired;
  wheel.Advance(500, [&](uint32_t item) { fired.push_back(item); });
  EXPECT_EQ(fired, std::vector<uint32_t>{0});
  wheel.Advance(1000, [&](uint32_t item) { fired.push_back(item); });
  EXPECT_EQ(fired, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(wheel.scheduled_count(), 0u);
}

TEST(ExpiryWheelTest, RescheduleFromFireCallback) {
  ExpiryWheel wheel;
  wheel.EnsureItems(1);
  wheel.Schedule(0, 10);
  int fires = 0;
  wheel.Advance(100, [&](uint32_t item) {
    ++fires;
    if (fires < 3) wheel.Schedule(item, wheel.now() + 20);
  });
  // 10 -> 30 -> 50, the third fire leaves it unscheduled.
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(wheel.scheduled_count(), 0u);
}

// ---------------------------------------------------------------------------
// KeyTable
// ---------------------------------------------------------------------------

namespace {
// Resolver for standalone KeyTable tests: values are indices into an
// external key log, mirroring how the store resolves record indices.
uint64_t TestKeyOf(const void* ctx, uint32_t val) {
  return (*static_cast<const std::vector<uint64_t>*>(ctx))[val];
}
}  // namespace

TEST(KeyTableTest, RandomizedAgainstUnorderedMap) {
  std::vector<uint64_t> key_of_val;
  KeyTable table(&TestKeyOf, &key_of_val, 64);
  std::unordered_map<uint64_t, uint32_t> ref;
  Rng rng(0x7AB1E003);
  bool saw_rehash = false;
  for (int op = 0; op < 60000; ++op) {
    const uint64_t key = 1 + rng.Uniform(9000);
    const uint64_t what = rng.Uniform(10);
    auto it = ref.find(key);
    if (what < 6) {
      if (it == ref.end()) {
        const uint32_t val = static_cast<uint32_t>(key_of_val.size());
        key_of_val.push_back(key);
        table.Insert(key, val);
        ref.emplace(key, val);
      }
    } else if (what < 8) {
      EXPECT_EQ(table.Erase(key), it != ref.end());
      if (it != ref.end()) ref.erase(it);
    } else {
      const uint32_t got = table.Find(key);
      if (it == ref.end()) {
        EXPECT_EQ(got, KeyTable::kNotFound);
      } else {
        EXPECT_EQ(got, it->second);
      }
    }
    saw_rehash = saw_rehash || table.RehashInProgress();
    ASSERT_EQ(table.size(), ref.size());
  }
  EXPECT_TRUE(saw_rehash);
  EXPECT_GT(table.rehash_steps(), 0u);
  for (const auto& [key, val] : ref) EXPECT_EQ(table.Find(key), val);
}

// ---------------------------------------------------------------------------
// KeyedCounterStore: oracle differential
// ---------------------------------------------------------------------------

// Naive per-key reference: three plain ExponentialHistograms fed from the
// store's own observer stream (admit / exact-add / wheel-expire / evict),
// which is exactly the determinism contract the header documents. Every
// resident key's point and variance answers must be bit-identical.
struct RefKey {
  ExponentialHistogram sum;
  ExponentialHistogram sumsq;
  ExponentialHistogram nevents;
  RefKey(double eps, uint64_t window)
      : sum({eps, window}), sumsq({eps, window}), nevents({eps, window}) {}
};

TEST(KeyedStoreTest, OracleDifferentialBitIdentity) {
  KeyedStoreConfig cfg;
  cfg.epsilon = 0.1;
  cfg.window_len = 512;
  cfg.track_variance = true;
  KeyedCounterStore store(cfg);  // no sketch: admit-all, churn via expiry

  std::map<uint64_t, RefKey> ref;
  store.on_admit = [&](uint64_t key, Timestamp) {
    ASSERT_TRUE(ref.try_emplace(key, cfg.epsilon, cfg.window_len).second);
  };
  store.on_evict = [&](uint64_t key, Timestamp) {
    ASSERT_EQ(ref.erase(key), 1u);
  };
  store.on_expire = [&](uint64_t key, Timestamp now) {
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    it->second.sum.Expire(now);
    it->second.sumsq.Expire(now);
    it->second.nevents.Expire(now);
  };
  store.on_exact_add = [&](uint64_t key, Timestamp ts, uint64_t weight) {
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    it->second.sum.Add(ts, weight);
    it->second.sumsq.Add(ts, weight * weight);
    it->second.nevents.Add(ts, 1);
  };

  Rng rng(0x0D1FF7777);
  Timestamp ts = 1;
  std::vector<StreamEvent> batch;
  for (int op = 0; op < 3000; ++op) {
    const uint64_t what = rng.Uniform(100);
    if (what < 60) {
      ts += rng.Uniform(cfg.window_len / 8 + 1);
      const uint64_t weight = 1 + (rng.Uniform(5) == 0 ? rng.Uniform(999) : 0);
      store.Add(1 + rng.Uniform(60), ts, weight);
    } else if (what < 80) {
      batch.clear();
      const size_t n = 1 + rng.Uniform(32);
      for (size_t i = 0; i < n; ++i) {
        ts += rng.Uniform(4);
        batch.push_back(StreamEvent{ts, 1 + rng.Uniform(60), 0});
      }
      store.AddBatch(batch.data(), batch.size());
    } else if (what < 90) {
      // Idle gap: wheel fires without any adds.
      ts += rng.Uniform(2 * cfg.window_len);
      store.Advance(ts);
    }

    // Full cross-check of the resident set at a randomized query time.
    ASSERT_EQ(store.LiveKeys(), ref.size()) << "op " << op;
    const Timestamp now = store.clock() + rng.Uniform(cfg.window_len / 4 + 1);
    const uint64_t range = 1 + rng.Uniform(cfg.window_len + 64);
    for (auto& [key, rk] : ref) {
      double est = 0.0;
      ASSERT_TRUE(store.TryPointQuery(key, now, range, &est))
          << "op " << op << " key " << key;
      EXPECT_EQ(est, rk.sum.Estimate(now, range))
          << "op " << op << " key " << key << " now=" << now
          << " range=" << range;

      KeyVarianceStats vs;
      ASSERT_TRUE(store.TryVarianceQuery(key, now, range, &vs));
      const double rcount = rk.nevents.Estimate(now, range);
      const double rsum = rk.sum.Estimate(now, range);
      EXPECT_EQ(vs.count, rcount);
      EXPECT_EQ(vs.sum, rsum);
      if (rcount > 0.0) {
        const double rmean = rsum / rcount;
        EXPECT_EQ(vs.mean, rmean);
        EXPECT_EQ(vs.variance,
                  rk.sumsq.Estimate(now, range) / rcount - rmean * rmean);
      } else {
        EXPECT_EQ(vs.mean, 0.0);
        EXPECT_EQ(vs.variance, 0.0);
      }
    }
    // Non-resident keys answer false (sketch fallback is the caller's).
    const uint64_t probe = 1 + rng.Uniform(60);
    if (!ref.count(probe)) {
      double est = 0.0;
      EXPECT_FALSE(store.TryPointQuery(probe, now, cfg.window_len, &est));
    }
  }
  EXPECT_GT(store.stats().evictions, 0u) << "test never exercised eviction";
  EXPECT_GT(store.stats().admissions, store.stats().evictions);
}

// Exact variance on a window that fully covers a handful of arrivals
// (no EH approximation in play): textbook values, not just self-identity.
TEST(KeyedStoreTest, VarianceMatchesClosedForm) {
  KeyedStoreConfig cfg;
  cfg.epsilon = 0.01;
  cfg.window_len = 1 << 20;
  cfg.track_variance = true;
  KeyedCounterStore store(cfg);
  const uint64_t weights[] = {2, 4, 4, 4, 5, 5, 7, 9};
  Timestamp ts = 100;
  for (uint64_t w : weights) store.Add(42, ts += 10, w);
  KeyVarianceStats vs;
  ASSERT_TRUE(store.TryVarianceQuery(42, ts, cfg.window_len, &vs));
  EXPECT_DOUBLE_EQ(vs.count, 8.0);
  EXPECT_DOUBLE_EQ(vs.sum, 40.0);
  EXPECT_DOUBLE_EQ(vs.mean, 5.0);
  EXPECT_DOUBLE_EQ(vs.variance, 4.0);  // E[w^2] = 29, 29 - 25
  double point = 0.0;
  ASSERT_TRUE(store.TryPointQuery(42, ts, cfg.window_len, &point));
  EXPECT_DOUBLE_EQ(point, 40.0);
}

TEST(KeyedStoreDeathTest, EpsilonBelowSlabBoundAbortsWithMessage) {
  // The slab layout holds at most SlabEhPool::kMaxLevelCapacity buckets
  // per level. A smaller epsilon would overflow a key's span on a long
  // run of adds, so construction aborts — in Release builds too.
  KeyedStoreConfig cfg;
  cfg.epsilon = 1e-4;
  cfg.window_len = 1 << 20;
  EXPECT_DEATH(
      {
        KeyedCounterStore store(cfg);
        for (Timestamp ts = 1; ts <= 400'000; ++ts) store.Add(42, ts);
      },
      "SlabEhPool: epsilon 0.0001 needs 10002 buckets per level");
}

TEST(KeyedStoreDeathTest, TimestampPastSlotEncodingAbortsWithMessage) {
  // A slot packs a bucket's level into the top 8 bits above a 56-bit end
  // timestamp. A larger timestamp (nanosecond Unix time is ~1.7e18)
  // would corrupt the key's span, so the add aborts — in Release too.
  KeyedStoreConfig cfg;
  cfg.epsilon = 0.1;
  cfg.window_len = 1 << 20;
  EXPECT_DEATH(
      {
        KeyedCounterStore store(cfg);
        store.Add(42, (Timestamp{1} << 56) - 1);
        store.Add(42, Timestamp{1} << 56);
      },
      "SlabEhPool: timestamp 72057594037927936 exceeds the slot encoding "
      "bound 2\\^56");
}

// ---------------------------------------------------------------------------
// Sketch-guarded admission / eviction / capacity
// ---------------------------------------------------------------------------

TEST(KeyedStoreTest, SketchGuardsAdmission) {
  const uint64_t kWindow = 1000;
  EcmEh sketch(SketchConfig(0.05, kWindow));
  KeyedStoreConfig cfg;
  cfg.epsilon = 0.05;
  cfg.window_len = kWindow;
  cfg.admit_threshold = 60.0;
  KeyedCounterStore store(cfg, &sketch);

  // One hot key (weight floods past the threshold), many one-shot colds.
  const uint64_t kHot = 7;
  Rng rng(0xAD317);
  Timestamp ts = 1;
  uint64_t cold_events = 0;
  for (int i = 0; i < 2000; ++i) {
    ts += 1;
    uint64_t key;
    uint64_t weight;
    if (rng.Uniform(4) == 0) {
      key = kHot;
      weight = 10;
    } else {
      key = 1000 + rng.Uniform(100000);  // effectively never repeats
      weight = 1;
      ++cold_events;
    }
    sketch.Add(key, ts, weight);  // sketch first, store second
    store.Add(key, ts, weight);
  }
  EXPECT_TRUE(store.Contains(kHot));
  // The admission gate kept the cold universe out of exact memory.
  EXPECT_LT(store.LiveKeys(), 1 + cold_events / 10);
  EXPECT_GT(store.stats().rejected_events, cold_events / 2);

  // Cold keys stay sketch-only.
  double est = 0.0;
  EXPECT_FALSE(store.TryPointQuery(999999, ts, kWindow, &est));

  // The hot key's exact estimate tracks its true in-window total.
  double exact = 0.0;
  ASSERT_TRUE(store.TryPointQuery(kHot, ts, kWindow, &exact));
  EXPECT_GT(exact, 60.0);

  // Cooling off: no more arrivals, clock runs past the window; the wheel
  // evicts the hot key back to sketch-only coverage and frees its memory.
  store.Advance(ts + 4 * kWindow);
  EXPECT_FALSE(store.Contains(kHot));
  EXPECT_EQ(store.LiveKeys(), 0u);
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST(KeyedStoreTest, CapacityBudgetRefusesAndRationsAscending) {
  KeyedStoreConfig cfg;
  cfg.window_len = 1000;
  cfg.max_keys = 4;
  KeyedCounterStore store(cfg);
  // One batch offering 8 distinct keys: the 4 smallest win the budget.
  std::vector<StreamEvent> batch;
  const uint64_t keys[] = {90, 10, 70, 30, 50, 20, 80, 60};
  Timestamp ts = 0;
  for (uint64_t k : keys) batch.push_back(StreamEvent{++ts, k, 0});
  store.AddBatch(batch.data(), batch.size());
  EXPECT_EQ(store.LiveKeys(), 4u);
  for (uint64_t k : {10, 20, 30, 50}) EXPECT_TRUE(store.Contains(k)) << k;
  for (uint64_t k : {60, 70, 80, 90}) EXPECT_FALSE(store.Contains(k)) << k;
  EXPECT_EQ(store.stats().capacity_refusals, 4u);
  EXPECT_EQ(store.stats().rejected_events, 4u);

  // Single-add path refuses too until eviction frees room.
  store.Add(5, ++ts);
  EXPECT_FALSE(store.Contains(5));
  EXPECT_EQ(store.stats().capacity_refusals, 5u);
}

// ---------------------------------------------------------------------------
// Idle-tick cost: O(keys whose oldest bucket can expire), not O(live)
// ---------------------------------------------------------------------------

TEST(KeyedStoreTest, IdleTicksTouchNoKeys) {
  KeyedStoreConfig cfg;
  cfg.epsilon = 0.1;
  cfg.window_len = 1 << 20;
  KeyedCounterStore store(cfg);
  constexpr uint64_t kKeys = 1000;
  Timestamp ts = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) store.Add(k, ++ts);
  ASSERT_EQ(store.LiveKeys(), kKeys);
  ASSERT_EQ(store.stats().wheel_keys_touched, 0u);

  // Thousands of clock advances across the span where no key's content
  // can leave the window: zero keys touched, O(1) per call.
  const Timestamp safe_end = 1 + cfg.window_len - 8;
  for (Timestamp t = ts; t < safe_end; t += (safe_end - ts) / 5000 + 1) {
    store.Advance(t);
  }
  EXPECT_EQ(store.stats().wheel_keys_touched, 0u)
      << "idle advance touched keys despite nothing expiring";

  // Jumping past everyone's expiry touches each key at most twice: once
  // when the window boundary first passes time zero (full coverage ends,
  // so the estimate legitimately changes) and once when its bucket
  // expires and the key is evicted — O(expiring keys), never O(ticks).
  store.Advance(ts + 2 * cfg.window_len);
  EXPECT_GE(store.stats().wheel_keys_touched, kKeys);
  EXPECT_LE(store.stats().wheel_keys_touched, 2 * kKeys);
  EXPECT_EQ(store.stats().evictions, kKeys);
  EXPECT_EQ(store.LiveKeys(), 0u);
}

// ---------------------------------------------------------------------------
// Rehash-under-expiry fuzz (run under ASan/TSan in CI)
// ---------------------------------------------------------------------------

TEST(KeyedStoreTest, RehashUnderExpiryFuzz) {
  KeyedStoreConfig cfg;
  cfg.epsilon = 0.2;
  cfg.window_len = 4096;
  KeyedCounterStore store(cfg);
  std::unordered_set<uint64_t> resident;
  store.on_admit = [&](uint64_t key, Timestamp) { resident.insert(key); };
  store.on_evict = [&](uint64_t key, Timestamp) { resident.erase(key); };

  Rng rng(0xF022EA51);
  Timestamp ts = 1;
  std::vector<StreamEvent> batch;
  for (int op = 0; op < 60000; ++op) {
    const uint64_t key = 1 + rng.Uniform(20000);
    const uint64_t what = rng.Uniform(100);
    if (what < 70) {
      ts += rng.Uniform(2);
      store.Add(key, ts);
    } else if (what < 90) {
      batch.clear();
      for (size_t i = 1 + rng.Uniform(16); i > 0; --i) {
        ts += rng.Uniform(2);
        batch.push_back(StreamEvent{ts, 1 + rng.Uniform(20000), 0});
      }
      store.AddBatch(batch.data(), batch.size());
    } else {
      // Expiry bursts race the incremental rehash drain.
      ts += rng.Uniform(cfg.window_len / 2);
      store.Advance(ts);
    }
    if (op % 997 == 0) {
      ASSERT_EQ(store.LiveKeys(), resident.size()) << "op " << op;
      for (int probe = 0; probe < 50; ++probe) {
        const uint64_t k = 1 + rng.Uniform(20000);
        ASSERT_EQ(store.Contains(k), resident.count(k) > 0)
            << "op " << op << " key " << k;
      }
    }
  }
  ASSERT_EQ(store.LiveKeys(), resident.size());
  // Drain the world; everything must unwind cleanly.
  store.Advance(ts + 4 * cfg.window_len);
  EXPECT_EQ(store.LiveKeys(), 0u);
  EXPECT_TRUE(resident.empty());
  EXPECT_EQ(store.stats().admissions, store.stats().evictions);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST(KeyedStoreTest, EngineCoFeedsAndPrefersExactAnswers) {
  StreamEngine::Options opts;
  opts.sketch = SketchConfig(0.1, 1000);
  StreamEngine engine(opts);
  KeyedStoreConfig cfg;
  cfg.epsilon = 0.1;
  cfg.window_len = 1000;
  cfg.admit_threshold = 5.0;
  KeyedCounterStore* store = engine.EnableKeyedStore(cfg);
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(engine.keyed_store(), store);

  Timestamp ts = 0;
  for (int i = 0; i < 50; ++i) engine.Ingest(7, ++ts);
  engine.Ingest(12345, ++ts);  // one-shot cold key

  bool exact = false;
  const double hot = engine.PointQueryExact(7, 1000, &exact);
  EXPECT_TRUE(exact);
  // Exact counter from the admission point on: the few arrivals before
  // the sketch estimate crossed the threshold are not in it.
  EXPECT_GE(hot, 40.0);
  EXPECT_LE(hot, 50.0);

  const double cold = engine.PointQueryExact(12345, 1000, &exact);
  EXPECT_FALSE(exact);  // fell back to the sketch
  EXPECT_GE(cold, 1.0);
  EXPECT_GT(engine.MemoryBytes(), store->MemoryBytes());
}

}  // namespace
}  // namespace ecm
