#include "src/window/slab_eh.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/window/eh_arithmetic.h"

namespace ecm {

// ---------------------------------------------------------------------------
// SlabArena
// ---------------------------------------------------------------------------

uint8_t SlabArena::ClassFor(uint32_t slots) {
  for (uint8_t cls = 0; cls < kNumClasses; ++cls) {
    if (ClassSlots(cls) >= slots) return cls;
  }
  assert(false && "slot request exceeds the largest slab size class");
  return kNumClasses - 1;
}

uint32_t SlabArena::Allocate(uint8_t cls) {
  std::vector<uint32_t>& fl = free_[cls];
  if (fl.empty()) {
    const uint32_t block_slots = ClassSlots(cls);
    const uint32_t nblocks =
        std::max((kFirstPageSlots << carved_[cls]) / block_slots, 1u);
    if (carved_[cls] < kPageDoublings) ++carved_[cls];
    const uint32_t page_slots = nblocks * block_slots;
    Page page;
    page.slots.reset(new uint64_t[page_slots]);
    page.num_slots = page_slots;
    page.block_slots = static_cast<uint16_t>(block_slots);
    const uint32_t page_idx = static_cast<uint32_t>(pages_.size());
    assert(page_idx < (1u << (32 - kBlockBits)) - 1 &&
           "slab arena page index space exhausted");
    fl.reserve(fl.size() + nblocks);
    // Reversed so that blocks are handed out front-to-back within the page.
    for (uint32_t b = nblocks; b-- > 0;) {
      fl.push_back((page_idx << kBlockBits) | b);
    }
    pages_.push_back(std::move(page));
  }
  const uint32_t handle = fl.back();
  fl.pop_back();
  ++live_blocks_;
  return handle;
}

void SlabArena::Free(uint32_t handle, uint8_t cls) {
  assert(handle != kNullBlock);
  assert(live_blocks_ > 0);
  free_[cls].push_back(handle);
  --live_blocks_;
}

size_t SlabArena::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const Page& p : pages_) bytes += p.num_slots * sizeof(uint64_t);
  bytes += pages_.capacity() * sizeof(Page);
  for (const std::vector<uint32_t>& fl : free_) {
    bytes += fl.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// SlabEhPool
// ---------------------------------------------------------------------------

SlabEhPool::SlabEhPool(double epsilon, uint64_t window_len)
    : epsilon_(epsilon),
      window_len_(window_len),
      level_capacity_(EhLevelCapacity(epsilon)) {
  assert(epsilon_ > 0.0 && epsilon_ <= 1.0);
  assert(window_len_ > 0);
  // Checked in every build type: past this capacity one histogram's slots
  // overflow the largest size class and the 16-bit header fields.
  if (level_capacity_ > kMaxLevelCapacity) {
    std::fprintf(stderr,
                 "SlabEhPool: epsilon %g needs %zu buckets per level, the "
                 "slab layout holds at most %zu (epsilon must be >= 1/%zu)\n",
                 epsilon_, level_capacity_, kMaxLevelCapacity,
                 kMaxLevelCapacity - 2);
    std::abort();
  }
}

void SlabEhPool::Reblock(SlabEhState* s, uint8_t new_cls) {
  const uint32_t handle = arena_.Allocate(new_cls);
  if (s->block != SlabArena::kNullBlock) {
    if (s->count > 0) {
      std::memcpy(arena_.Slots(handle), arena_.Slots(s->block) + s->start,
                  static_cast<size_t>(s->count) * sizeof(uint64_t));
    }
    arena_.Free(s->block, s->cls);
  }
  s->block = handle;
  s->cls = new_cls;
  s->start = 0;
}

void SlabEhPool::EnsureRoom(SlabEhState* s, uint32_t extra) {
  if (s->block == SlabArena::kNullBlock) {
    s->cls = SlabArena::ClassFor(std::max(extra, SlabArena::kMinBlockSlots));
    s->block = arena_.Allocate(s->cls);
    s->start = 0;
    return;
  }
  const uint32_t cap = SlabArena::ClassSlots(s->cls);
  if (static_cast<uint32_t>(s->start) + s->count + extra <= cap) return;
  if (static_cast<uint32_t>(s->count) + extra <= cap) {
    // Compact in place: slide the span back to offset 0.
    uint64_t* slots = arena_.Slots(s->block);
    std::memmove(slots, slots + s->start,
                 static_cast<size_t>(s->count) * sizeof(uint64_t));
    s->start = 0;
    return;
  }
  Reblock(s, SlabArena::ClassFor(s->count + extra));
}

void SlabEhPool::AddOne(SlabEhState* s, Timestamp ts) {
  EnsureRoom(s, 1);
  uint64_t* slots = arena_.Slots(s->block);
  uint32_t end = static_cast<uint32_t>(s->start) + s->count;  // exclusive
  slots[end++] = EncodeSlot(0, ts);
  ++s->count;
  // Cascade merges, exactly as ExponentialHistogram::AddOne: when a level
  // fills to level_capacity_, its two oldest buckets coalesce into one
  // bucket of double size, which is the newest bucket of the next level.
  // Levels are contiguous segments of the span (non-increasing top-down),
  // so "two oldest of level i" is the segment head pair and the merged
  // bucket lands exactly where the pair began.
  uint32_t seg_end = end;  // exclusive end of the current level's segment
  for (uint64_t level = 0;; ++level) {
    uint32_t seg_begin = seg_end;
    while (seg_begin > s->start && SlotLevel(slots[seg_begin - 1]) == level) {
      --seg_begin;
    }
    if (seg_end - seg_begin < level_capacity_) break;
    // Merged bucket keeps the newer end timestamp of the pair.
    const Timestamp second_end = SlotEnd(slots[seg_begin + 1]);
    slots[seg_begin] = EncodeSlot(level + 1, second_end);
    std::memmove(&slots[seg_begin + 1], &slots[seg_begin + 2],
                 static_cast<size_t>(end - seg_begin - 2) * sizeof(uint64_t));
    --end;
    --s->count;
    seg_end = seg_begin + 1;  // the merged slot now tails level+1's segment
  }
}

void SlabEhPool::AddBatch(SlabEhState* s, Timestamp ts, uint64_t count) {
  // Unpack the span into per-level end-timestamp lists (level i holds
  // lv[i][lv_head[i]..], oldest first), run the shared weighted cascade
  // over them, and repack. Reused thread-local scratch keeps the path
  // allocation-free after warm-up.
  static thread_local std::vector<std::vector<Timestamp>> lv;
  static thread_local std::vector<uint32_t> lv_head;
  struct ListLevels {
    uint64_t Count(size_t i) {
      if (lv.size() <= i) {
        lv.resize(i + 1);
        lv_head.resize(i + 1, 0);
      }
      return lv[i].size() - lv_head[i];
    }
    Timestamp End(size_t i, uint64_t pos) const {
      return lv[i][lv_head[i] + pos];
    }
    void PopFront(size_t i, uint64_t n) {
      lv_head[i] += static_cast<uint32_t>(n);
    }
    void PushBack(size_t i, Timestamp end) { lv[i].push_back(end); }
  } levels;
  for (std::vector<Timestamp>& l : lv) l.clear();
  lv_head.assign(lv.size(), 0);
  const uint64_t* span =
      s->block == SlabArena::kNullBlock ? nullptr : arena_.Slots(s->block);
  for (uint32_t p = 0; p < s->count; ++p) {
    const uint64_t slot = span[s->start + p];
    const size_t level = static_cast<size_t>(SlotLevel(slot));
    levels.Count(level);  // creates the level
    levels.PushBack(level, SlotEnd(slot));
  }
  const size_t total_slots = static_cast<size_t>(
      s->count + EhCascadeAdd(levels, level_capacity_, ts, count));

  // Repack top level down, oldest first within each level.
  assert(total_slots <=
         SlabArena::ClassSlots(SlabArena::kNumClasses - 1));
  if (s->block == SlabArena::kNullBlock ||
      SlabArena::ClassSlots(s->cls) < total_slots) {
    // The span is rewritten wholesale below, so swap blocks without a copy.
    if (s->block != SlabArena::kNullBlock) arena_.Free(s->block, s->cls);
    s->cls = SlabArena::ClassFor(static_cast<uint32_t>(
        std::max<size_t>(total_slots, SlabArena::kMinBlockSlots)));
    s->block = arena_.Allocate(s->cls);
  }
  uint64_t* out = arena_.Slots(s->block);
  uint32_t pos = 0;
  for (size_t i = lv.size(); i-- > 0;) {
    for (size_t j = lv_head[i]; j < lv[i].size(); ++j) {
      out[pos++] = EncodeSlot(i, lv[i][j]);
    }
  }
  s->start = 0;
  s->count = static_cast<uint16_t>(total_slots);
}

void SlabEhPool::Add(SlabEhState* s, Timestamp ts, uint64_t count) {
  // Checked in every build type: a larger timestamp would OR into the
  // level bits of its slot and corrupt the span.
  if (ts > kEndMask) [[unlikely]] {
    std::fprintf(stderr,
                 "SlabEhPool: timestamp %llu exceeds the slot encoding "
                 "bound 2^%d\n",
                 static_cast<unsigned long long>(ts), kLevelShift);
    std::abort();
  }
  s->total += count;
  if (count == 1) {
    AddOne(s, ts);
  } else if (count > 1) {
    AddBatch(s, ts, count);
  }
  Expire(s, ts);
}

void SlabEhPool::Expire(SlabEhState* s, Timestamp now) {
  if (s->count == 0) return;
  const Timestamp wstart = WindowStart(now, window_len_);
  uint64_t* slots = arena_.Slots(s->block);
  while (s->count > 0 && SlotEnd(slots[s->start]) <= wstart) {
    const uint64_t slot = slots[s->start];
    const Timestamp end = SlotEnd(slot);
    if (end > s->expired_end) s->expired_end = end;
    s->total -= 1ULL << SlotLevel(slot);
    ++s->start;
    --s->count;
  }
  if (s->count == 0) {
    arena_.Free(s->block, s->cls);
    s->block = SlabArena::kNullBlock;
    s->start = 0;
    s->cls = 0;
  } else if (s->cls > 0 &&
             static_cast<uint32_t>(s->count) * 4 <=
                 SlabArena::ClassSlots(s->cls)) {
    // Cooled-down key: hand the oversized block back (2x headroom kept).
    Reblock(s, SlabArena::ClassFor(static_cast<uint32_t>(s->count) * 2));
  }
}

void SlabEhPool::Release(SlabEhState* s) {
  if (s->block != SlabArena::kNullBlock) arena_.Free(s->block, s->cls);
  *s = SlabEhState{};
}

double SlabEhPool::Estimate(const SlabEhState& s, Timestamp now,
                            uint64_t range) const {
  if (range > window_len_) range = window_len_;
  const Timestamp boundary = WindowStart(now, range);
  if (s.count == 0) return 0.0;
  const uint64_t* slots = arena_.Slots(s.block);
  const uint32_t b = s.start;
  const uint32_t e = static_cast<uint32_t>(s.start) + s.count;

  // Full-coverage fast path: the front slot is the global oldest bucket
  // and its level is by construction the top non-empty level.
  const Timestamp oldest_end = SlotEnd(slots[b]);
  if (boundary < oldest_end) {
    double sum = static_cast<double>(s.total);
    const bool fully_inside = boundary == 0 || s.expired_end > boundary ||
                              s.expired_end >= oldest_end;
    if (!fully_inside) {
      sum -= static_cast<double>(1ULL << SlotLevel(slots[b])) / 2.0;
    }
    return sum;
  }

  // Partial range: end timestamps ascend front-to-back, so one binary
  // search finds the oldest in-range slot; in-range weight accumulates in
  // integers per level segment (levels are non-increasing front-to-back),
  // reproducing ExponentialHistogram::Estimate's sum bit for bit.
  uint32_t lo = b, hi = e;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (SlotEnd(slots[mid]) <= boundary) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == e) return 0.0;
  uint64_t weight = 0;
  for (uint32_t p = lo; p < e;) {
    const uint64_t level = SlotLevel(slots[p]);
    uint32_t seg_lo = p + 1, seg_hi = e;
    while (seg_lo < seg_hi) {
      const uint32_t mid = seg_lo + (seg_hi - seg_lo) / 2;
      if (SlotLevel(slots[mid]) == level) {
        seg_lo = mid + 1;
      } else {
        seg_hi = mid;
      }
    }
    weight += static_cast<uint64_t>(seg_lo - p) << level;
    p = seg_lo;
  }
  // Straddle half-correction on the oldest in-range bucket. Its
  // reconstructed start is the end of the next-older bucket — the span
  // predecessor, else the expiry watermark (identical to the per-level
  // predecessor walk in ExponentialHistogram).
  const Timestamp prev_end = lo > b ? SlotEnd(slots[lo - 1]) : s.expired_end;
  const bool fully_inside = boundary == 0 || prev_end > boundary ||
                            prev_end >= SlotEnd(slots[lo]);
  const double straddle =
      fully_inside ? 0.0
                   : static_cast<double>(1ULL << SlotLevel(slots[lo])) / 2.0;
  return static_cast<double>(weight) - straddle;
}

Timestamp SlabEhPool::NextEstimateChangeAt(const SlabEhState& s, Timestamp now,
                                           uint64_t range) const {
  if (range > window_len_) range = window_len_;
  if (s.count == 0) return 0;
  const Timestamp boundary = WindowStart(now, range);
  uint64_t candidate = std::numeric_limits<uint64_t>::max();
  if (boundary == 0) candidate = 1;
  if (s.expired_end > boundary) {
    candidate = std::min(candidate, s.expired_end);
  }
  // Smallest bucket end past the boundary: ends ascend front-to-back.
  const uint64_t* slots = arena_.Slots(s.block);
  uint32_t lo = s.start, hi = static_cast<uint32_t>(s.start) + s.count;
  const uint32_t e = hi;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (SlotEnd(slots[mid]) <= boundary) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < e) candidate = std::min<uint64_t>(candidate, SlotEnd(slots[lo]));
  if (candidate == std::numeric_limits<uint64_t>::max()) return 0;
  return candidate + range;
}

std::vector<BucketView> SlabEhPool::Buckets(const SlabEhState& s) const {
  std::vector<BucketView> out;
  out.reserve(s.count);
  if (s.count == 0) return out;
  const uint64_t* slots = arena_.Slots(s.block);
  Timestamp prev_end = s.expired_end;
  for (uint32_t p = s.start; p < static_cast<uint32_t>(s.start) + s.count;
       ++p) {
    const uint64_t slot = slots[p];
    out.push_back(
        BucketView{prev_end, SlotEnd(slot), 1ULL << SlotLevel(slot)});
    prev_end = SlotEnd(slot);
  }
  return out;
}

}  // namespace ecm
