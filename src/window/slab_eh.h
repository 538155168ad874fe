// Slab-arena exponential histograms: the storage engine of the per-key
// exact counter store (engine/keyed_store.h).
//
// ExponentialHistogram is the right synopsis per key, but the class itself
// is built for a few thousand sketch cells, not a few million keys: each
// instance owns a level directory plus one std::vector ring per level —
// three heap blocks and ~200 bytes of frame before the first bucket. At a
// million keys that is pointer-chasing per touch and an allocator call on
// every admission (the SAM shape: `std::map<string, shared_ptr<EH>>`).
//
// This file flattens the whole histogram into ONE contiguous span of
// 8-byte slots inside a shared slab arena:
//
//   * slot = (level << 56) | end_timestamp — buckets are self-describing,
//     so there is no per-key level directory at all;
//   * bucket age strictly decreases with position: the span is ordered
//     oldest→newest, which (by the EH invariant "bucket sizes are
//     non-decreasing with age") means levels are non-increasing and end
//     timestamps ascending — every per-level operation of the classic
//     algorithm becomes a binary search inside the span;
//   * spans live in size-class blocks (jemalloc spacing: powers of two
//     plus 1.5x midpoints) carved from slab pages that grow per class:
//     a class's first page holds 1 KiB, each further page twice the
//     last, up to 64 KiB — so a store of a few hundred keys holds a few
//     KiB per class, while a million-key store runs on 64 KiB pages;
//     freed blocks recycle through per-class free lists, so
//     admission/eviction churn never touches malloc in steady state;
//   * per-key header state is a 32-byte POD (SlabEhState) the caller
//     embeds in its own record — the pool holds no per-key allocation.
//
// Semantics match ExponentialHistogram EXACTLY. The level capacity and
// the closed-form weighted batch insert are the same code
// (window/eh_arithmetic.h); the unit cascade, expiry rule, estimate
// arithmetic (including the straddle half-correction and accumulation
// order) and NextEstimateChangeAt are the span-layout forms of the ring
// layout's. tests/slab_eh_test.cc pins bit-identical estimates against
// ExponentialHistogram over randomized weighted add/expire/query
// interleavings; the keyed store's differential suite leans on that
// identity for its naive-map oracle.

#ifndef ECM_WINDOW_SLAB_EH_H_
#define ECM_WINDOW_SLAB_EH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/window/exponential_histogram.h"
#include "src/window/window_spec.h"

namespace ecm {

/// Page-based slab allocator for 8-byte slot blocks in jemalloc-spaced
/// size classes (2, 3, 4, 6, 8, 12, ..., 32768 slots — powers of two plus
/// their 1.5x midpoints, so internal fragmentation is bounded by ~33%
/// instead of 2x). Each page holds whole blocks of one class. A class's
/// pages grow geometrically: the first holds kFirstPageSlots (1 KiB),
/// each further one twice the last, capped at kPageSlots (64 KiB) — or
/// one block, if that is larger — so a sparsely used class wastes at most
/// ~1 KiB and a busy one reaches full-size pages after six doublings.
/// Blocks are addressed by a 32-bit handle (page index, block index
/// within the page); freed blocks go to per-class free lists and are
/// handed out again before any new page is carved.
class SlabArena {
 public:
  static constexpr uint32_t kNullBlock = 0xFFFFFFFFu;
  // 2-slot minimum: a key holding 1-2 buckets (the steady state of the
  // million-key cold tail) pays 16 bytes of slab, a 3-bucket key 24.
  static constexpr uint32_t kMinBlockSlots = 2;
  static constexpr int kNumClasses = 29;
  static constexpr uint32_t kFirstPageSlots = 128;  // 1 KiB first page
  static constexpr uint32_t kPageSlots = 8192;      // 64 KiB page cap
  static constexpr uint32_t kPageDoublings = 6;     // 1 KiB -> 64 KiB
  static_assert(kFirstPageSlots << kPageDoublings == kPageSlots);

  /// Number of slots in a class-`cls` block.
  static uint32_t ClassSlots(uint8_t cls) { return kClassSlots[cls]; }

  /// Smallest class whose blocks hold at least `slots` slots. `slots` must
  /// be <= ClassSlots(kNumClasses - 1).
  static uint8_t ClassFor(uint32_t slots);

  /// Hands out a block of class `cls` (recycled if possible).
  uint32_t Allocate(uint8_t cls);

  /// Returns `handle` (a block of class `cls`) to its free list.
  void Free(uint32_t handle, uint8_t cls);

  uint64_t* Slots(uint32_t handle) {
    const Page& p = pages_[handle >> kBlockBits];
    return p.slots.get() +
           static_cast<size_t>(handle & kBlockMask) * p.block_slots;
  }
  const uint64_t* Slots(uint32_t handle) const {
    const Page& p = pages_[handle >> kBlockBits];
    return p.slots.get() +
           static_cast<size_t>(handle & kBlockMask) * p.block_slots;
  }

  /// Pages currently held (pages are never returned to the OS; freed
  /// blocks recycle within them).
  size_t NumPages() const { return pages_.size(); }

  /// Blocks handed out and not yet freed.
  size_t LiveBlocks() const { return live_blocks_; }

  /// Total footprint: page storage plus free-list bookkeeping.
  size_t MemoryBytes() const;

 private:
  // Handle = page index << kBlockBits | block index within page.
  static constexpr int kBlockBits = 12;
  static constexpr uint32_t kBlockMask = (1u << kBlockBits) - 1;

  // Powers of two and their 1.5x midpoints, ascending.
  static constexpr uint32_t kClassSlots[kNumClasses] = {
      2,    3,    4,    6,    8,    12,   16,    24,    32,    48,
      64,   96,   128,  192,  256,  384,  512,   768,   1024,  1536,
      2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576, 32768};

  struct Page {
    std::unique_ptr<uint64_t[]> slots;
    uint32_t num_slots = 0;
    // ClassSlots(cls) of the class this page is carved for.
    uint16_t block_slots = 0;
  };

  std::vector<Page> pages_;
  std::array<std::vector<uint32_t>, kNumClasses> free_;
  // Pages carved per class, saturating at kPageDoublings: the next page
  // of class c holds kFirstPageSlots << carved_[c] slots' worth of whole
  // blocks (at least one).
  std::array<uint8_t, kNumClasses> carved_{};
  size_t live_blocks_ = 0;
};

/// Per-key histogram header. POD; embed it in the owning record. All
/// fields are managed by SlabEhPool — callers only read `total` via the
/// pool accessors. A default-constructed state is a valid empty histogram.
struct SlabEhState {
  uint64_t total = 0;          ///< sum of held bucket sizes
  Timestamp expired_end = 0;   ///< end of the most recently expired bucket
  uint32_t block = SlabArena::kNullBlock;
  uint16_t start = 0;          ///< offset of the oldest slot in the block
  uint16_t count = 0;          ///< buckets held
  uint8_t cls = 0;             ///< size class of `block`
};

/// Shared-configuration pool of slab histograms: one (epsilon, window)
/// pair, one arena, any number of SlabEhState instances. Not thread-safe
/// (the keyed store shards by design, like the rest of the library).
class SlabEhPool {
 public:
  /// Same parameters as ExponentialHistogram::Config. The slab layout
  /// bounds the per-level capacity at kMaxLevelCapacity (epsilon >=
  /// 1/508) so that slot counts fit the 16-bit header fields; that
  /// covers every per-key configuration of interest (per-key counters
  /// trade epsilon for memory at million-key scale). A smaller epsilon
  /// aborts with a message, in every build type.
  SlabEhPool(double epsilon, uint64_t window_len);

  /// Registers `count` arrivals at `ts` and expires what slid out,
  /// exactly like ExponentialHistogram::Add. Timestamps must be
  /// non-decreasing per state and < 2^56 (the slot encoding bound); a
  /// larger one aborts with a message, in every build type.
  void Add(SlabEhState* s, Timestamp ts, uint64_t count = 1);

  /// Drops buckets entirely outside the window ending at `now`; shrinks
  /// or frees the block when occupancy drops far enough.
  void Expire(SlabEhState* s, Timestamp now);

  /// Frees the state's block and resets it to empty.
  void Release(SlabEhState* s);

  /// Bit-identical to ExponentialHistogram::Estimate on the same add
  /// sequence (see header comment).
  double Estimate(const SlabEhState& s, Timestamp now, uint64_t range) const;

  /// Bit-identical to ExponentialHistogram::NextEstimateChangeAt: the
  /// earliest clock strictly after `now` at which Estimate(·, range) can
  /// change without further adds; 0 if it never can. The keyed store's
  /// expiry wheel schedules keys off this, so idle keys cost nothing
  /// until their oldest content can actually expire.
  Timestamp NextEstimateChangeAt(const SlabEhState& s, Timestamp now,
                                 uint64_t range) const;

  uint64_t BucketTotal(const SlabEhState& s) const { return s.total; }
  size_t NumBuckets(const SlabEhState& s) const { return s.count; }

  /// Snapshot (oldest first) for tests, mirroring
  /// ExponentialHistogram::Buckets().
  std::vector<BucketView> Buckets(const SlabEhState& s) const;

  /// Arena-wide footprint (shared across all states of the pool).
  size_t MemoryBytes() const { return sizeof(*this) + arena_.MemoryBytes(); }

  const SlabArena& arena() const { return arena_; }
  double epsilon() const { return epsilon_; }
  uint64_t window_len() const { return window_len_; }
  size_t level_capacity() const { return level_capacity_; }

  /// Largest supported per-level bucket capacity (k + 2). Keeps the
  /// worst-case slot count of one histogram inside the largest size
  /// class and the 16-bit count field.
  static constexpr size_t kMaxLevelCapacity = 510;

 private:
  static constexpr int kLevelShift = 56;
  static constexpr uint64_t kEndMask = (1ULL << kLevelShift) - 1;

  static uint64_t EncodeSlot(uint64_t level, Timestamp end) {
    return (level << kLevelShift) | end;
  }
  static Timestamp SlotEnd(uint64_t slot) { return slot & kEndMask; }
  static uint64_t SlotLevel(uint64_t slot) { return slot >> kLevelShift; }

  // Makes room for `extra` more slots behind start+count, compacting to
  // offset 0 or growing the block as needed.
  void EnsureRoom(SlabEhState* s, uint32_t extra);
  // Moves the span into a block of class `new_cls` (grow or shrink).
  void Reblock(SlabEhState* s, uint8_t new_cls);

  void AddOne(SlabEhState* s, Timestamp ts);
  void AddBatch(SlabEhState* s, Timestamp ts, uint64_t count);

  double epsilon_;
  uint64_t window_len_;
  size_t level_capacity_;
  SlabArena arena_;
};

}  // namespace ecm

#endif  // ECM_WINDOW_SLAB_EH_H_
