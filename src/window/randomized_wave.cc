#include "src/window/randomized_wave.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/util/bits.h"

namespace ecm {

RandomizedWave::RandomizedWave(const Config& config)
    : epsilon_(config.epsilon),
      delta_(config.delta),
      window_len_(config.window_len),
      rng_(config.seed) {
  assert(epsilon_ > 0.0 && epsilon_ <= 1.0);
  assert(delta_ > 0.0 && delta_ < 1.0);
  assert(window_len_ > 0);
  // Clamp before the float->int cast: an adversarially tiny epsilon
  // (e.g. from deserialized bytes) must not overflow into UB.
  double capacity = std::ceil(config.sample_constant / (epsilon_ * epsilon_));
  if (!(capacity >= 1.0)) capacity = 1.0;
  if (capacity > 1e9) capacity = 1e9;
  level_capacity_ = static_cast<size_t>(capacity);
  // Enough levels that the top level's sample (expected n * 2^-(L-1)
  // entries) fits in one level's capacity for max_arrivals arrivals.
  uint64_t u = std::max<uint64_t>(config.max_arrivals, 1);
  num_levels_ = 1;
  if (u > level_capacity_) {
    num_levels_ = CeilLog2((u + level_capacity_ - 1) / level_capacity_) + 1;
  }
  // Odd number of sub-waves for an unambiguous median; Θ(log 1/δ).
  int d = static_cast<int>(std::ceil(std::log2(1.0 / delta_)));
  if (d < 1) d = 1;
  if (d % 2 == 0) ++d;
  subwaves_.resize(d);
  for (auto& sw : subwaves_) {
    sw.levels.resize(num_levels_);
    sw.sizes.assign(num_levels_, 0);
    sw.truncated.assign(num_levels_, false);
  }
}

void RandomizedWave::PushSamples(SubWave* sw, int level, Timestamp ts,
                                 uint64_t n) {
  auto& runs = sw->levels[level];
  if (!runs.empty() && runs.back().ts == ts) {
    runs.back().count += n;
    runs.back().cum += n;
  } else {
    uint64_t cum = (runs.empty() ? 0 : runs.back().cum) + n;
    runs.push_back(Sample{ts, n, cum});
  }
  uint64_t size = sw->sizes[level] + n;
  if (size > level_capacity_) {
    // Evict the oldest samples; identical end state to per-sample
    // push/pop-front interleaving.
    uint64_t excess = size - level_capacity_;
    sw->truncated[level] = true;
    while (excess > 0) {
      Sample& front = runs.front();
      if (front.count <= excess) {
        excess -= front.count;
        runs.pop_front();
      } else {
        front.count -= excess;
        excess = 0;
      }
    }
    size = level_capacity_;
  }
  sw->sizes[level] = size;
}

void RandomizedWave::Add(Timestamp ts, uint64_t count) {
  assert(ts >= last_ts_ && "timestamps must be non-decreasing");
  last_ts_ = ts;
  lifetime_ += count;
  for (auto& sw : subwaves_) {
    // Binomial-split chain: n_0 = count arrivals reach level 0; of the n_l
    // reaching level l, Binomial(n_l, 1/2) survive the next fair coin and
    // reach level l+1 — jointly distributed exactly as `count` independent
    // geometric draws, at O(log count) splits (~count/32 coin words)
    // total. For count == 1 the chain consumes the very coins
    // GeometricLevel would.
    uint64_t n = count;
    for (int l = 0; n > 0; ++l) {
      PushSamples(&sw, l, ts, n);
      if (l + 1 >= num_levels_) break;
      n = rng_.BinomialHalf(n);
    }
  }
  Expire(ts);
}

void RandomizedWave::Expire(Timestamp now) {
  Timestamp wstart = WindowStart(now, window_len_);
  for (auto& sw : subwaves_) {
    // At capacity, a level retains the last-c samples of its substream,
    // and level l+1 samples a subset of level l's pushes — so retained
    // fronts age with the level index, and once a non-empty level has
    // nothing to trim the (newer) levels below it cannot either. The
    // top-down early exit makes the steady-state scan O(levels that
    // actually expire). Pre-capacity warm-up can briefly leave expired
    // samples behind, which only delays their reclamation: estimates
    // exclude out-of-range samples regardless.
    for (int l = num_levels_; l-- > 0;) {
      auto& runs = sw.levels[l];
      bool trimmed = false;
      // Keep one sample at or before the window start as coverage anchor.
      while (runs.size() > 1 && runs[1].ts <= wstart) {
        sw.sizes[l] -= runs.front().count;
        runs.pop_front();
        sw.truncated[l] = true;
        trimmed = true;
      }
      if (!runs.empty() && runs.front().ts <= wstart &&
          runs.front().count > 1) {
        // Shrink a weighted anchor run to the single sample the
        // per-sample pop loop would have kept.
        sw.sizes[l] -= runs.front().count - 1;
        runs.front().count = 1;
        sw.truncated[l] = true;
        trimmed = true;
      }
      if (!trimmed && !runs.empty()) break;
    }
  }
}

double RandomizedWave::EstimateSubWave(int idx, Timestamp now,
                                       uint64_t range) const {
  if (range > window_len_) range = window_len_;
  Timestamp boundary = WindowStart(now, range);
  const SubWave& sw = subwaves_[idx];

  for (int l = 0; l < num_levels_; ++l) {
    const auto& level = sw.levels[l];
    bool covers =
        !sw.truncated[l] || (!level.empty() && level.front().ts <= boundary);
    if (!covers) continue;
    // Number of sampled arrivals strictly inside the range: suffix sum of
    // the runs past the partition point, read off the cumulative counts.
    auto it = std::partition_point(
        level.begin(), level.end(),
        [boundary](const Sample& s) { return s.ts <= boundary; });
    uint64_t in_range = 0;
    if (it != level.end()) {
      in_range = (it == level.begin()) ? sw.sizes[l]
                                       : level.back().cum - std::prev(it)->cum;
    }
    return static_cast<double>(in_range) * static_cast<double>(1ULL << l);
  }
  // No level covers the boundary (possible only under adversarial
  // truncation); the coarsest level is the best effort.
  return static_cast<double>(sw.sizes[num_levels_ - 1]) *
         static_cast<double>(1ULL << (num_levels_ - 1));
}

double RandomizedWave::Estimate(Timestamp now, uint64_t range) const {
  assert(now >= last_ts_);
  std::vector<double> ests;
  ests.reserve(subwaves_.size());
  for (int i = 0; i < num_subwaves(); ++i) {
    ests.push_back(EstimateSubWave(i, now, range));
  }
  auto mid = ests.begin() + ests.size() / 2;
  std::nth_element(ests.begin(), mid, ests.end());
  return *mid;
}

Timestamp RandomizedWave::NextEstimateChangeAt(Timestamp now,
                                               uint64_t range) const {
  assert(now >= last_ts_);
  if (range > window_len_) range = window_len_;
  const Timestamp boundary = WindowStart(now, range);
  uint64_t candidate = std::numeric_limits<uint64_t>::max();
  for (const SubWave& sw : subwaves_) {
    for (const auto& level : sw.levels) {
      // First run past the boundary: the next coverage/partition flip of
      // this level.
      auto it = std::partition_point(
          level.begin(), level.end(),
          [boundary](const Sample& s) { return s.ts <= boundary; });
      if (it != level.end()) candidate = std::min(candidate, it->ts);
    }
  }
  if (candidate == std::numeric_limits<uint64_t>::max()) return 0;
  return candidate + range;
}

size_t RandomizedWave::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& sw : subwaves_) {
    bytes += sw.levels.size() *
             (sizeof(std::deque<Sample>) + sizeof(uint64_t) + sizeof(bool));
    for (const auto& level : sw.levels) {
      bytes += level.size() * sizeof(Sample);
    }
  }
  return bytes;
}

namespace {
constexpr uint8_t kRwMagic = 0xB7;
}  // namespace

void RandomizedWave::SerializeTo(ByteWriter* w) const {
  w->PutFixed<uint8_t>(kRwMagic);
  w->PutDouble(epsilon_);
  w->PutDouble(delta_);
  w->PutVarint(window_len_);
  w->PutVarint(level_capacity_);
  w->PutVarint(static_cast<uint64_t>(num_levels_));
  w->PutVarint(subwaves_.size());
  w->PutVarint(lifetime_);
  w->PutVarint(last_ts_);
  for (const SubWave& sw : subwaves_) {
    for (int l = 0; l < num_levels_; ++l) {
      w->PutFixed<uint8_t>(sw.truncated[l] ? 1 : 0);
      // Runs expand to one delta per retained sample (zero deltas within a
      // run) — byte-identical to the pre-run-compression encoding.
      w->PutVarint(sw.sizes[l]);
      Timestamp prev = 0;
      for (const Sample& s : sw.levels[l]) {
        w->PutVarint(s.ts - prev);
        for (uint64_t i = 1; i < s.count; ++i) w->PutVarint(0);
        prev = s.ts;
      }
    }
  }
}

Status RandomizedWave::DecodeFrom(ByteReader* r) {
  auto magic = r->GetFixed<uint8_t>();
  if (!magic.ok()) return magic.status();
  if (*magic != kRwMagic) {
    return Status::Corruption("bad randomized-wave magic byte");
  }
  auto epsilon = r->GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  auto delta = r->GetDouble();
  if (!delta.ok()) return delta.status();
  auto window = r->GetVarint();
  if (!window.ok()) return window.status();
  auto capacity = r->GetVarint();
  if (!capacity.ok()) return capacity.status();
  auto num_levels = r->GetVarint();
  if (!num_levels.ok()) return num_levels.status();
  auto num_subwaves = r->GetVarint();
  if (!num_subwaves.ok()) return num_subwaves.status();
  if (!(*epsilon > 0.0) || *epsilon > 1.0 || !(*delta > 0.0) ||
      *delta >= 1.0 || *window == 0 || *capacity == 0 || *num_levels == 0 ||
      *num_levels > 64 || *num_subwaves == 0 || *num_subwaves > 257) {
    return Status::Corruption("randomized-wave header out of domain");
  }
  // The header fixes the shape. A held wave of the same shape resizes
  // nothing and refills its own cleared deques instead of new ones.
  epsilon_ = *epsilon;
  delta_ = *delta;
  window_len_ = *window;
  level_capacity_ = *capacity;
  num_levels_ = static_cast<int>(*num_levels);
  subwaves_.resize(*num_subwaves);
  for (SubWave& sw : subwaves_) {
    sw.levels.resize(num_levels_);
    sw.sizes.resize(num_levels_);
    sw.truncated.resize(num_levels_);
  }

  auto lifetime = r->GetVarint();
  if (!lifetime.ok()) return lifetime.status();
  lifetime_ = *lifetime;
  auto last_ts = r->GetVarint();
  if (!last_ts.ok()) return last_ts.status();
  last_ts_ = *last_ts;

  for (SubWave& sw : subwaves_) {
    for (int l = 0; l < num_levels_; ++l) {
      auto truncated = r->GetFixed<uint8_t>();
      if (!truncated.ok()) return truncated.status();
      sw.truncated[l] = (*truncated != 0);
      auto count = r->GetVarint();
      if (!count.ok()) return count.status();
      if (*count > level_capacity_) {
        return Status::Corruption("randomized-wave level over capacity");
      }
      std::deque<Sample>& runs = sw.levels[l];
      runs.clear();
      Timestamp prev = 0;
      ECM_RETURN_NOT_OK(r->GetVarints(*count, [&](uint64_t delta_ts) {
        prev += delta_ts;
        if (!runs.empty() && runs.back().ts == prev) {
          ++runs.back().count;
          ++runs.back().cum;
        } else {
          const uint64_t cum = (runs.empty() ? 0 : runs.back().cum) + 1;
          runs.push_back(Sample{prev, 1, cum});
        }
      }));
      sw.sizes[l] = *count;
    }
  }
  return Status::OK();
}

}  // namespace ecm
