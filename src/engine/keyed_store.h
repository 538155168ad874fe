// Million-key exact counter store: sliding-window counts (and variance)
// per key for the hot set, guarded by the resident ECM sketch.
//
// The sketch answers point queries approximately for the whole key
// universe; deployments of the paper's monitoring stack (per-flow DDoS
// scoring, per-user rate analytics) also want *exact* windows for the
// keys that matter. The naive shape — SAM's `ExponentialHistogramSum`,
// a `std::map<key, shared_ptr<EH>>` — pays three heap allocations and a
// pointer chase per key and a full scan to expire; this store is the
// production version:
//
//   * KeyTable — open-addressing robin-hood table (8-byte key tags +
//     32-bit record indices in parallel arrays, backward-shift deletion,
//     no tombstones). Growth is an *incremental* rehash: a second table
//     is allocated and a bounded number of entries migrate per mutating
//     op, so no add ever pays a full-table stall — the property the
//     bench pins with a p99 add-latency ceiling.
//   * Slab-arena counters — per-key state is a 32-byte SlabEhState
//     header embedded in the key record; buckets live in shared slab
//     pages (window/slab_eh.h), recycled through free lists on
//     eviction. No per-key heap allocation anywhere.
//   * ExpiryWheel — a shared hierarchical timing wheel (8 levels x 256
//     slots, occupancy bitmaps) scheduling each key at its counter's
//     NextEstimateChangeAt. Idle keys cost zero per tick: Advance jumps
//     straight between occupied slots, so a tick's cost is O(keys whose
//     oldest bucket can actually expire), not O(live keys) — pinned by
//     a counting test.
//   * Sketch-guarded admission — unknown keys get exact counters only
//     when the resident EcmSketch estimates them at or above
//     `admit_threshold` (batched through FlagHeavyKeysAt / the PR-7
//     row-major kernels); keys whose window empties are evicted back
//     to sketch-only coverage on wheel expiry, so memory is bounded by
//     the hot-set budget (`max_keys`), not the universe.
//
// Determinism contract (what the oracle-differential test leans on): for
// admitted keys, every answer is bit-identical to a plain per-key
// ExponentialHistogram receiving the same Add sequence plus an Expire
// at each wheel firing — the slab representation is replicated from
// ExponentialHistogram exactly (see slab_eh.h), and admission decisions
// are a pure function of (sketch state, candidate key set) so a
// reference implementation can mirror them.

#ifndef ECM_ENGINE_KEYED_STORE_H_
#define ECM_ENGINE_KEYED_STORE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/stream/event.h"
#include "src/window/exponential_histogram.h"
#include "src/window/slab_eh.h"
#include "src/window/window_spec.h"

namespace ecm {

/// Open-addressing key table: uint64 key -> uint32 record index.
/// A slot packs a 4-byte hash tag and the 4-byte value into one uint64;
/// the full key lives in the owner's record array and is consulted
/// (through the resolver) only when a tag matches, so the table costs 8
/// bytes per slot instead of 12 and a probe run stays inside one cache
/// line. Robin-hood probing with backward-shift deletion; growth
/// rehashes incrementally (kRehashStep entries per mutating op) through
/// a two-table phase so no single operation pays a full-table migration.
class KeyTable {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  /// Returns the full key behind a stored value. The context pointer
  /// must stay valid for the table's lifetime (the keyed store passes
  /// the address of its record vector; indexing through it survives
  /// reallocation).
  using KeyResolver = uint64_t (*)(const void* ctx, uint32_t value);

  KeyTable(KeyResolver resolver, const void* resolver_ctx,
           size_t initial_capacity = 64);

  /// Record index of `key`, or kNotFound.
  uint32_t Find(uint64_t key) const;

  /// Inserts `key` (must not be present; value must not be kNotFound).
  void Insert(uint64_t key, uint32_t value);

  /// Removes `key`; returns false if absent.
  bool Erase(uint64_t key);

  size_t size() const { return size_; }
  bool RehashInProgress() const { return !old_slots_.empty(); }
  uint64_t rehash_steps() const { return rehash_steps_; }
  size_t Capacity() const { return slots_.size() + old_slots_.size(); }
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kRehashStep = 16;

  // Slot layout: tag in the high 32 bits, value in the low 32.
  // A slot is empty iff its value field is kNotFound.
  static uint64_t PackSlot(uint32_t tag, uint32_t value) {
    return (static_cast<uint64_t>(tag) << 32) | value;
  }
  static uint32_t SlotTag(uint64_t s) { return static_cast<uint32_t>(s >> 32); }
  static uint32_t SlotVal(uint64_t s) { return static_cast<uint32_t>(s); }

  // The tag doubles as the hash: home slot = tag & mask (capacities are
  // <= 2^32, so the low 32 hash bits cover every mask).
  size_t ProbeDistance(uint32_t tag, size_t slot, uint64_t mask) const {
    return (slot + mask + 1 - (tag & mask)) & mask;
  }
  void InsertInto(std::vector<uint64_t>& slots, uint64_t mask, uint32_t tag,
                  uint32_t value);
  uint32_t FindIn(const std::vector<uint64_t>& slots, uint64_t mask,
                  uint32_t tag, uint64_t key) const;
  bool EraseFrom(std::vector<uint64_t>& slots, uint64_t mask, uint32_t tag,
                 uint64_t key);
  void MaybeStartRehash();
  void DrainStep();

  KeyResolver resolver_;
  const void* resolver_ctx_;

  // Primary table (inserts land here).
  std::vector<uint64_t> slots_;
  uint64_t mask_ = 0;
  // Draining table during incremental rehash (empty vector otherwise).
  std::vector<uint64_t> old_slots_;
  uint64_t old_mask_ = 0;
  size_t old_live_ = 0;
  size_t drain_pos_ = 0;

  size_t size_ = 0;
  uint64_t rehash_steps_ = 0;
};

/// Hierarchical timing wheel over uint32 item ids (record indices).
/// 8 levels x 256 slots cover the full 64-bit tick space; per-level
/// occupancy bitmaps let Advance jump directly between occupied slots,
/// so advancing over an idle span costs O(1) regardless of how many
/// items are parked. Items are intrusively linked through parallel
/// arrays indexed by item id (~18 bytes per item).
class ExpiryWheel {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  explicit ExpiryWheel(Timestamp start = 0);

  /// Grows the per-item link arrays to cover ids < n.
  void EnsureItems(size_t n);

  /// Pre-reserves the per-item link arrays for n ids (declared budgets
  /// avoid vector-doubling slack).
  void Reserve(size_t n);

  /// (Re)schedules `item` to fire at `deadline` (clamped to now+1 if not
  /// in the future). Item id must be < the EnsureItems bound.
  void Schedule(uint32_t item, Timestamp deadline);

  /// Unschedules `item` if scheduled.
  void Cancel(uint32_t item);

  bool IsScheduled(uint32_t item) const {
    return item < deadline_.size() && deadline_[item] != 0;
  }
  Timestamp DeadlineOf(uint32_t item) const { return deadline_[item]; }

  /// Advances the clock to `now`, invoking fire(item) for every item
  /// whose deadline passed, in deadline order. `fire` may reschedule or
  /// leave the item unscheduled, but must not call Advance reentrantly.
  /// When nothing is due the call is O(1) off the cached next-event
  /// lower bound.
  void Advance(Timestamp now, const std::function<void(uint32_t)>& fire);

  Timestamp now() const { return now_; }
  size_t scheduled_count() const { return scheduled_; }
  size_t MemoryBytes() const;

 private:
  static constexpr int kLevels = 8;
  static constexpr int kSlotBits = 8;
  static constexpr uint32_t kSlots = 1u << kSlotBits;
  static constexpr Timestamp kNoEvent = ~0ULL;

  int LevelFor(Timestamp deadline) const;
  void Place(uint32_t item, Timestamp deadline);
  void Unlink(uint32_t item);
  /// Lower bound of the earliest occupied slot, or kNoEvent.
  Timestamp NextEventBound() const;
  /// Drains every slot whose bound equals now_ (fires level 0, cascades
  /// higher levels down).
  void ProcessCurrent(const std::function<void(uint32_t)>& fire);

  uint32_t heads_[kLevels][kSlots];
  uint64_t bitmap_[kLevels][kSlots / 64];
  std::vector<uint32_t> next_;
  std::vector<uint32_t> prev_;
  // Placement deadline while linked, 0 when unscheduled. A linked item's
  // (level, slot) is recomputed from this: an item only ever leaves its
  // placement slot when the clock reaches that slot's bound (and the
  // cascade re-places it), so LevelFor(deadline) stays exact in between —
  // no per-item slot field needed.
  std::vector<Timestamp> deadline_;
  Timestamp now_;
  // Safe lower bound on the next event time (never later than the true
  // next event); lets idle Advance calls return without scanning.
  Timestamp cached_next_ = kNoEvent;
  size_t scheduled_ = 0;
};

/// Configuration of the keyed counter store.
struct KeyedStoreConfig {
  double epsilon = 0.01;      ///< per-key EH accuracy (>= 1/508, slab bound)
  uint64_t window_len = 100;  ///< sliding-window length in ticks
  /// Hot-set budget: maximum resident keys (0 = unbounded). Admission
  /// beyond the budget is refused until evictions free room.
  size_t max_keys = 0;
  /// Sketch estimate (full window) required to admit an unknown key.
  /// <= 0 admits everything the capacity allows. Ignored when the store
  /// has no sketch.
  double admit_threshold = 0.0;
  /// Also maintain per-key sum-of-squares + event-count histograms so
  /// TryVarianceQuery works (3x the counter memory for tracked keys).
  bool track_variance = false;
};

/// Store telemetry. The `wheel_keys_touched` counter is the subject of
/// the O(expiring keys) test: advancing over a span where no key's
/// oldest bucket can expire must not touch any key.
struct KeyedStoreStats {
  uint64_t events_total = 0;     ///< events offered via Add/AddBatch
  uint64_t exact_events = 0;     ///< events absorbed into exact counters
  uint64_t rejected_events = 0;  ///< events dropped (below threshold/budget)
  uint64_t admissions = 0;
  uint64_t evictions = 0;
  uint64_t capacity_refusals = 0;  ///< heavy keys refused by max_keys
  uint64_t wheel_keys_touched = 0;
  uint64_t peak_live_keys = 0;
};

/// Per-key variance snapshot (paired sum / sum-of-squares histograms,
/// after SAM's ExponentialHistogramVariance).
struct KeyVarianceStats {
  double count = 0.0;     ///< events in range (from the unit-count EH)
  double sum = 0.0;       ///< sum of weights in range
  double mean = 0.0;      ///< sum / count
  double variance = 0.0;  ///< E[w^2] - mean^2 (0 when count == 0)
};

/// The exact per-key counter store. Single-threaded like every synopsis
/// in this library (shard stores across threads the way ParallelIngest
/// shards sketches). Timestamps must be non-decreasing across all calls;
/// when a sketch guards admission, feed it each event *before* the store
/// so admission sees the sketch state including the current arrival.
class KeyedCounterStore {
 public:
  using Sketch = EcmSketch<ExponentialHistogram>;

  /// `sketch` may be null: every key is then admitted (up to max_keys).
  /// The sketch is borrowed, not owned, and must outlive the store.
  explicit KeyedCounterStore(const KeyedStoreConfig& config,
                             const Sketch* sketch = nullptr);

  /// Feeds one weighted arrival. Unknown keys go through admission.
  void Add(uint64_t key, Timestamp ts, uint64_t weight = 1);

  /// Feeds a timestamp-ordered slice of unit-weight events. Misses are
  /// buffered and admission runs once per batch over the distinct
  /// candidate keys (ascending key order decides who gets the last
  /// budget slots); buffered events of admitted keys are then replayed
  /// in arrival order, so an admitted key's counters are exact from its
  /// first in-batch appearance.
  void AddBatch(const StreamEvent* events, size_t n);

  /// Advances the store clock: fires due wheel entries, expiring idle
  /// keys' buckets and evicting the ones whose window emptied. Called
  /// implicitly by Add/AddBatch; call directly to reclaim memory during
  /// ingest gaps.
  void Advance(Timestamp now);

  bool Contains(uint64_t key) const {
    return table_.Find(key) != KeyTable::kNotFound;
  }

  /// Exact-counter point estimate over (now - range, now], bit-identical
  /// to a plain ExponentialHistogram fed this key's admitted arrivals.
  /// Returns false (and leaves *out alone) for non-resident keys —
  /// fall back to the sketch. `now` must be >= the store clock.
  bool TryPointQuery(uint64_t key, Timestamp now, uint64_t range,
                     double* out) const;

  /// Windowed variance of the key's arrival weights (requires
  /// track_variance). False for non-resident keys.
  bool TryVarianceQuery(uint64_t key, Timestamp now, uint64_t range,
                        KeyVarianceStats* out) const;

  size_t LiveKeys() const { return table_.size(); }
  Timestamp clock() const { return wheel_.now(); }
  const KeyedStoreStats& stats() const { return stats_; }
  const KeyedStoreConfig& config() const { return config_; }

  /// Full store footprint: slab pages, key table, wheel, records.
  size_t MemoryBytes() const;

  /// Test observers (called synchronously; keep them light). on_expire
  /// fires when the wheel touches a *surviving* key, after its buckets
  /// expired — the oracle mirrors it with ExponentialHistogram::Expire.
  std::function<void(uint64_t key, Timestamp now)> on_admit;
  std::function<void(uint64_t key, Timestamp now)> on_evict;
  std::function<void(uint64_t key, Timestamp now)> on_expire;
  /// Fires for every event absorbed into an exact counter (including
  /// batch replays, in the order they are applied) — the oracle feeds
  /// its reference histograms from exactly this sequence.
  std::function<void(uint64_t key, Timestamp ts, uint64_t weight)>
      on_exact_add;

 private:
  struct KeyRecord {
    uint64_t key = 0;
    SlabEhState sum;
  };
  struct VarExt {
    SlabEhState sumsq;   // adds weight^2 per arrival
    SlabEhState nevents; // adds 1 per arrival
  };

  /// KeyTable resolver: ctx is the store's records_ vector.
  static uint64_t RecordKeyOf(const void* ctx, uint32_t value);

  uint32_t AdmitKey(uint64_t key);
  void AddToRecord(uint32_t idx, Timestamp ts, uint64_t weight);
  /// Min nonzero NextEstimateChangeAt across the record's histograms
  /// (0 when all are empty).
  Timestamp RecordDeadline(uint32_t idx, Timestamp now) const;
  /// Schedules the record, or evicts it when nothing can ever expire.
  void ScheduleOrEvict(uint32_t idx, Timestamp now);
  void EvictRecord(uint32_t idx, Timestamp now);
  /// Wheel fire handler: expire buckets, evict-or-reschedule.
  void FireRecord(uint32_t idx);

  KeyedStoreConfig config_;
  const Sketch* sketch_;
  SlabEhPool pool_;
  KeyTable table_;
  ExpiryWheel wheel_;
  std::vector<KeyRecord> records_;
  std::vector<uint32_t> free_records_;
  // Parallel to records_ when track_variance is on (same index), empty
  // otherwise — no per-record link field, no separate free list.
  std::vector<VarExt> var_exts_;
  KeyedStoreStats stats_;

  // Batch scratch (members, not statics: stores are independent).
  struct PendingEvent {
    uint64_t key;
    Timestamp ts;
  };
  std::vector<PendingEvent> pending_;
  std::vector<uint64_t> candidates_;
  std::vector<uint8_t> heavy_flags_;
  std::function<void(uint32_t)> fire_fn_;
};

}  // namespace ecm

#endif  // ECM_ENGINE_KEYED_STORE_H_
