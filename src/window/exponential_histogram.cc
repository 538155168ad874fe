#include "src/window/exponential_histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "src/window/eh_arithmetic.h"

namespace ecm {

ExponentialHistogram::ExponentialHistogram(const Config& config)
    : epsilon_(config.epsilon),
      window_len_(config.window_len),
      level_capacity_(EhLevelCapacity(config.epsilon)) {
  assert(epsilon_ > 0.0 && epsilon_ <= 1.0);
  assert(window_len_ > 0);
}

void ExponentialHistogram::Grow(size_t level) {
  // Geometric segment growth, capped at the ring bound. The cascade never
  // holds more than level_capacity_ buckets in a level, so a full segment
  // at the cap is unreachable here.
  std::vector<Bucket>& slots = level_slots_[level];
  size_t new_cap =
      std::min(std::max<size_t>(2 * slots.size(), 8), level_capacity_ + 1);
  std::vector<Bucket> grown(new_cap);
  uint32_t old_cap = static_cast<uint32_t>(slots.size());
  for (uint32_t j = 0; j < level_count_[level]; ++j) {
    uint32_t idx = level_head_[level] + j;
    if (idx >= old_cap) idx -= old_cap;
    grown[j] = slots[idx];
  }
  slots = std::move(grown);
  level_head_[level] = 0;
}

void ExponentialHistogram::AddOne(Timestamp ts) {
  ++num_buckets_;
  EnsureLevel(0);
  PushBack(0, Bucket{ts});
  // Cascade merges: when a level fills up, its two oldest buckets coalesce
  // into one bucket of double size, which is the *newest* bucket of the
  // next level (bucket sizes are non-decreasing with age).
  for (size_t i = 0;
       i < NumLevels() && level_count_[i] >= level_capacity_; ++i) {
    PopFront(i);  // merged bucket keeps the newer end timestamp
    Bucket second = PopFront(i);
    EnsureLevel(i + 1);
    PushBack(i + 1, Bucket{second.end});
    --num_buckets_;
  }
}

// The ring layout's view of its levels for the shared weighted cascade
// (window/eh_arithmetic.h).
struct ExponentialHistogram::RingLevels {
  ExponentialHistogram* eh;
  uint64_t Count(size_t i) {
    eh->EnsureLevel(i);
    return eh->level_count_[i];
  }
  Timestamp End(size_t i, uint64_t pos) const {
    return eh->At(i, static_cast<uint32_t>(pos)).end;
  }
  void PopFront(size_t i, uint64_t n) {
    while (n-- > 0) eh->PopFront(i);
  }
  void PushBack(size_t i, Timestamp end) { eh->PushBack(i, Bucket{end}); }
};

void ExponentialHistogram::AddBatch(Timestamp ts, uint64_t count) {
  RingLevels levels{this};
  num_buckets_ = static_cast<size_t>(
      static_cast<int64_t>(num_buckets_) +
      EhCascadeAdd(levels, level_capacity_, ts, count));
}

void ExponentialHistogram::Add(Timestamp ts, uint64_t count) {
  assert(ts >= last_ts_ && "timestamps must be non-decreasing");
  last_ts_ = ts;
  lifetime_ += count;
  total_ += count;
  if (count == 1) {
    AddOne(ts);
  } else if (count > 1) {
    AddBatch(ts, count);
  }
  Expire(ts);
}

void ExponentialHistogram::Expire(Timestamp now) {
  Timestamp wstart = WindowStart(now, window_len_);
  // Oldest buckets live at the highest levels; within a level, at front.
  for (size_t i = NumLevels(); i-- > 0;) {
    bool dropped_here = false;
    while (level_count_[i] > 0 && At(i, 0).end <= wstart) {
      Bucket b = PopFront(i);
      if (b.end > expired_end_) expired_end_ = b.end;
      total_ -= (1ULL << i);
      --num_buckets_;
      dropped_here = true;
    }
    // If nothing expired at this level, nothing can expire below it either:
    // lower-level buckets are strictly newer.
    if (!dropped_here && level_count_[i] > 0) break;
  }
}

double ExponentialHistogram::Estimate(Timestamp now, uint64_t range) const {
  assert(now >= last_ts_);
  if (range > window_len_) range = window_len_;
  Timestamp boundary = WindowStart(now, range);
  if (num_buckets_ == 0) return 0.0;

  // Full-coverage fast path: the global oldest bucket (ring front of the
  // top non-empty level) is already in range, so every bucket is — the
  // running total answers in O(1), with the straddle half-correction
  // (paper §3) applied to that oldest bucket. This is the steady state
  // for full-window queries after Expire().
  const Timestamp oldest_end = At(top_level_, 0).end;
  if (boundary < oldest_end) {
    double sum = static_cast<double>(total_);
    bool fully_inside = boundary == 0 || expired_end_ > boundary ||
                        expired_end_ >= oldest_end;
    if (!fully_inside) {
      sum -= static_cast<double>(1ULL << top_level_) / 2.0;
    }
    return sum;
  }

  // Partial range: bucket age strictly decreases from the top level down
  // (level i+1 buckets are all older than level i buckets), so exactly
  // one level straddles the boundary — the highest one whose newest
  // bucket is in range. One binary search inside that level finds the
  // oldest in-range bucket; every lower level contributes its whole
  // weight off the directory without touching bucket storage. In-range
  // weight accumulates in integers, so the result is bit-identical to a
  // bucket-by-bucket scan for masses below 2^53.
  uint64_t weight = 0;
  double straddle = 0.0;
  for (size_t i = top_level_ + 1; i-- > 0;) {
    const uint32_t n = level_count_[i];
    if (n == 0 || At(i, n - 1).end <= boundary) continue;
    // First ring position whose bucket end exceeds the boundary.
    uint32_t lo = 0, hi = n;
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      if (At(i, mid).end <= boundary) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    weight += static_cast<uint64_t>(n - lo) << i;
    // The oldest in-range bucket contributes half its size if it
    // straddles the boundary and fully if its reconstructed start is
    // inside the range. Its start is the end of the next-older bucket:
    // the predecessor in this level, else the newest bucket of the next
    // non-empty level above, else the expiry watermark.
    Timestamp prev_end = expired_end_;
    if (lo > 0) {
      prev_end = At(i, lo - 1).end;
    } else {
      for (size_t j = i + 1; j < NumLevels(); ++j) {
        if (level_count_[j] > 0) {
          prev_end = At(j, level_count_[j] - 1).end;
          break;
        }
      }
    }
    bool fully_inside =
        boundary == 0 || prev_end > boundary || prev_end >= At(i, lo).end;
    if (!fully_inside) straddle = static_cast<double>(1ULL << i) / 2.0;
    // All remaining (newer) levels are entirely in range.
    while (i-- > 0) {
      weight += static_cast<uint64_t>(level_count_[i]) << i;
    }
    break;
  }
  return static_cast<double>(weight) - straddle;
}

Timestamp ExponentialHistogram::NextEstimateChangeAt(Timestamp now,
                                                     uint64_t range) const {
  assert(now >= last_ts_);
  if (range > window_len_) range = window_len_;
  if (num_buckets_ == 0) return 0;
  const Timestamp boundary = WindowStart(now, range);
  uint64_t candidate = std::numeric_limits<uint64_t>::max();
  // The straddle correction special-cases boundary == 0, so leaving zero
  // is itself a potential flip.
  if (boundary == 0) candidate = 1;
  if (expired_end_ > boundary) candidate = std::min(candidate, expired_end_);
  // Smallest bucket end past the boundary: bucket age strictly decreases
  // from the top level down, so it is the first in-range bucket of the
  // highest level that still has one.
  for (size_t i = top_level_ + 1; i-- > 0;) {
    const uint32_t n = level_count_[i];
    if (n == 0 || At(i, n - 1).end <= boundary) continue;
    uint32_t lo = 0, hi = n;
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      if (At(i, mid).end <= boundary) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    candidate = std::min<uint64_t>(candidate, At(i, lo).end);
    break;
  }
  if (candidate == std::numeric_limits<uint64_t>::max()) return 0;
  return candidate + range;
}

size_t ExponentialHistogram::AllocatedSlots() const {
  size_t slots = 0;
  for (const std::vector<Bucket>& s : level_slots_) slots += s.size();
  return slots;
}

size_t ExponentialHistogram::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += AllocatedSlots() * sizeof(Bucket);
  bytes += level_head_.capacity() * sizeof(uint32_t);
  bytes += level_count_.capacity() * sizeof(uint32_t);
  bytes += level_slots_.capacity() * sizeof(std::vector<Bucket>);
  return bytes;
}

std::vector<BucketView> ExponentialHistogram::Buckets() const {
  std::vector<BucketView> out;
  out.reserve(num_buckets_);
  Timestamp prev_end = expired_end_;
  for (size_t i = NumLevels(); i-- > 0;) {
    uint64_t size = 1ULL << i;
    for (uint32_t j = 0; j < level_count_[i]; ++j) {
      out.push_back(BucketView{prev_end, At(i, j).end, size});
      prev_end = At(i, j).end;
    }
  }
  return out;
}

int ExponentialHistogram::CheckInvariant() const {
  // Gather sizes oldest-first, then verify invariant 1 against the suffix
  // sums of more recent buckets. Buckets of size 1 are exempt (they carry
  // at most 1/2 absolute error, which the error analysis absorbs).
  std::vector<uint64_t> sizes;
  sizes.reserve(num_buckets_);
  for (size_t i = NumLevels(); i-- > 0;) {
    for (uint32_t j = 0; j < level_count_[i]; ++j) {
      sizes.push_back(1ULL << i);
    }
  }
  for (size_t j = 0; j < sizes.size(); ++j) {
    if (sizes[j] < 2) continue;
    uint64_t newer = 0;
    for (size_t i = j + 1; i < sizes.size(); ++i) newer += sizes[i];
    if (static_cast<double>(sizes[j]) >
        2.0 * epsilon_ * (1.0 + static_cast<double>(newer)) + 1e-9) {
      return static_cast<int>(j);
    }
  }
  return -1;
}


namespace {
constexpr uint8_t kEhMagic = 0xE1;
}  // namespace

void ExponentialHistogram::SerializeTo(ByteWriter* w) const {
  w->PutFixed<uint8_t>(kEhMagic);
  w->PutDouble(epsilon_);
  w->PutVarint(window_len_);
  w->PutVarint(expired_end_);
  w->PutVarint(lifetime_);
  w->PutVarint(last_ts_);
  w->PutVarint(NumLevels());
  for (size_t i = 0; i < NumLevels(); ++i) {
    w->PutVarint(level_count_[i]);
    // Front-to-back end stamps ascend: ship the gaps.
    const std::vector<Bucket>& slots = level_slots_[i];
    size_t idx = level_head_[i];
    Timestamp prev = 0;
    w->PutVarints(level_count_[i], [&] {
      const Timestamp end = slots[idx].end;
      if (++idx == slots.size()) idx = 0;
      const Timestamp gap = end - prev;
      prev = end;
      return gap;
    });
  }
}

Status ExponentialHistogram::DecodeFrom(ByteReader* r) {
  auto magic = r->GetFixed<uint8_t>();
  if (!magic.ok()) return magic.status();
  if (*magic != kEhMagic) {
    return Status::Corruption("bad exponential-histogram magic byte");
  }
  auto epsilon = r->GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  auto window = r->GetVarint();
  if (!window.ok()) return window.status();
  if (!(*epsilon > 0.0) || *epsilon > 1.0 || *window == 0) {
    return Status::Corruption("exponential-histogram header out of domain");
  }
  if (*epsilon != epsilon_ || *window != window_len_) {
    *this = ExponentialHistogram(Config{*epsilon, *window});
  }

  auto expired_end = r->GetVarint();
  if (!expired_end.ok()) return expired_end.status();
  expired_end_ = *expired_end;
  auto lifetime = r->GetVarint();
  if (!lifetime.ok()) return lifetime.status();
  lifetime_ = *lifetime;
  auto last_ts = r->GetVarint();
  if (!last_ts.ok()) return last_ts.status();
  last_ts_ = *last_ts;

  auto num_levels = r->GetVarint();
  if (!num_levels.ok()) return num_levels.status();
  if (*num_levels > 64) {
    return Status::Corruption("exponential histogram claims > 64 levels");
  }
  if (*num_levels != NumLevels()) {
    level_head_ = std::vector<uint32_t>(*num_levels);
    level_count_ = std::vector<uint32_t>(*num_levels);
    level_slots_ = std::vector<std::vector<Bucket>>(*num_levels);
  }
  top_level_ = 0;
  num_buckets_ = 0;
  total_ = 0;
  for (size_t i = 0; i < *num_levels; ++i) {
    auto count = r->GetVarint();
    if (!count.ok()) return count.status();
    if (*count >= level_capacity_) {
      return Status::Corruption("exponential histogram level over capacity");
    }
    // Each bucket costs at least one payload byte, so a hostile
    // tiny-epsilon header cannot size a segment past the input.
    if (*count > r->remaining()) {
      return Status::Corruption("exponential histogram level truncated");
    }
    // The segment Grow would have reached pushing `count` buckets.
    const size_t segment =
        *count == 0 ? 0
                    : std::min<size_t>(std::bit_ceil(std::max<uint64_t>(
                                           *count, 8)),
                                       level_capacity_ + 1);
    std::vector<Bucket>& slots = level_slots_[i];
    if (slots.size() != segment) slots = std::vector<Bucket>(segment);
    level_head_[i] = 0;
    level_count_[i] = static_cast<uint32_t>(*count);
    Bucket* next = slots.data();
    Timestamp prev = 0;
    ECM_RETURN_NOT_OK(r->GetVarints(*count, [&](uint64_t gap) {
      prev += gap;
      *next++ = Bucket{prev};
    }));
    if (*count > 0) top_level_ = i;
    num_buckets_ += *count;
    total_ += *count << i;
  }
  return Status::OK();
}

}  // namespace ecm
