#include "src/window/merge.h"

#include <algorithm>

#include "src/util/random.h"

namespace ecm {

void AppendBucketEvents(const std::vector<BucketView>& buckets,
                        std::vector<ReplayEvent>* events) {
  for (const BucketView& b : buckets) {
    if (b.size == 0) continue;
    uint64_t at_start = b.size / 2;
    uint64_t at_end = b.size - at_start;
    Timestamp start = std::max<Timestamp>(b.start, 1);
    Timestamp end = std::max<Timestamp>(b.end, 1);
    if (at_start > 0 && start < end) {
      events->push_back(ReplayEvent{start, at_start});
      events->push_back(ReplayEvent{end, at_end});
    } else {
      // Zero-width bucket (or start clamped past end): everything at end.
      events->push_back(ReplayEvent{end, b.size});
    }
  }
}

namespace {

using RwSample = RandomizedWave::Sample;

// Extends a sub-wave's sampling hierarchy past its stored top level: each
// retained sample survives each further level with probability 1/2,
// drawn per run as Binomial(count, 1/2) (seeded, so merges are
// reproducible; distributionally identical to per-sample coin flips).
// Returns the runs simulated at level top_stored + levels_to_add.
std::vector<RwSample> ExtendLevels(const std::deque<RwSample>& top_level,
                                   int levels_to_add, Rng* rng) {
  std::vector<RwSample> current(top_level.begin(), top_level.end());
  for (int i = 0; i < levels_to_add; ++i) {
    std::vector<RwSample> next;
    next.reserve(current.size());
    for (const RwSample& s : current) {
      uint64_t kept = rng->BinomialHalf(s.count);
      if (kept > 0) next.push_back(RwSample{s.ts, kept});
    }
    current = std::move(next);
  }
  return current;
}

// One input's contribution to a merged level: either a borrowed view of
// the input's own run deque or an owned vector of simulated runs. Both
// are already sorted by timestamp, which is what lets the level merge be
// a k-way run merge instead of a concatenate-and-sort.
struct RunSource {
  const std::deque<RwSample>* borrowed = nullptr;
  std::vector<RwSample> owned;
  size_t pos = 0;

  size_t size() const { return borrowed ? borrowed->size() : owned.size(); }
  const RwSample& at(size_t i) const {
    return borrowed ? (*borrowed)[i] : owned[i];
  }
  bool exhausted() const { return pos >= size(); }
  const RwSample& head() const { return at(pos); }
};

// Merges the sources' runs into timestamp order, coalescing equal
// timestamps across inputs, and returns the total sample count. A binary
// min-heap over the source heads makes this O(n log k) for n total runs
// over a fan-in of k, replacing the previous concatenate-and-sort's
// O(n log n) whole-level re-sort. Sources with equal head timestamps can
// pop in either order — coalescing makes the result identical.
uint64_t KWayMergeRuns(std::vector<RunSource>* sources,
                       std::vector<RwSample>* runs) {
  runs->clear();
  uint64_t total = 0;
  auto newer_head = [sources](size_t a, size_t b) {
    return (*sources)[a].head().ts > (*sources)[b].head().ts;
  };
  std::vector<size_t> heap;
  heap.reserve(sources->size());
  for (size_t i = 0; i < sources->size(); ++i) {
    if (!(*sources)[i].exhausted()) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), newer_head);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), newer_head);
    size_t idx = heap.back();
    heap.pop_back();
    RunSource& src = (*sources)[idx];
    const RwSample& s = src.head();
    ++src.pos;
    total += s.count;
    if (!runs->empty() && runs->back().ts == s.ts) {
      runs->back().count += s.count;
    } else {
      runs->push_back(s);
    }
    if (!src.exhausted()) {
      heap.push_back(idx);
      std::push_heap(heap.begin(), heap.end(), newer_head);
    }
  }
  return total;
}

}  // namespace

Result<RandomizedWave> MergeRandomizedWaves(
    const std::vector<const RandomizedWave*>& inputs, uint64_t seed) {
  if (inputs.empty()) {
    return Status::InvalidArgument("MergeRandomizedWaves: no inputs");
  }
  const RandomizedWave& first = *inputs[0];
  int target_levels = first.num_levels();
  for (const auto* rw : inputs) {
    if (rw->window_len() != first.window_len() ||
        rw->epsilon() != first.epsilon() || rw->delta() != first.delta() ||
        rw->num_subwaves() != first.num_subwaves() ||
        rw->level_capacity() != first.level_capacity()) {
      return Status::Incompatible(
          "MergeRandomizedWaves: inputs differ in epsilon/delta/window/"
          "sub-wave configuration");
    }
    target_levels = std::max(target_levels, rw->num_levels());
  }

  // Construct a wave with exactly target_levels levels: the constructor
  // derives levels from max_arrivals, so invert that formula.
  RandomizedWave::Config cfg;
  cfg.epsilon = first.epsilon();
  cfg.delta = first.delta();
  cfg.window_len = first.window_len();
  cfg.seed = seed;
  cfg.max_arrivals =
      static_cast<uint64_t>(first.level_capacity()) << (target_levels - 1);
  RandomizedWave merged(cfg);

  Rng rng(seed ^ 0xD157F1B5ULL);
  size_t capacity = first.level_capacity();
  uint64_t lifetime = 0;
  Timestamp last_ts = 0;

  std::vector<RunSource> sources;
  std::vector<RwSample> runs;
  for (int s = 0; s < first.num_subwaves(); ++s) {
    auto& out_sw = merged.mutable_subwaves()[s];
    for (int l = 0; l < merged.num_levels(); ++l) {
      // Each input's level runs are already sorted by timestamp, so the
      // merged level is a k-way run merge across the inputs.
      sources.clear();
      bool truncated = false;
      for (const auto* rw : inputs) {
        const auto& in_sw = rw->subwaves()[s];
        int in_top = rw->num_levels() - 1;
        RunSource src;
        if (l <= in_top) {
          src.borrowed = &in_sw.levels[l];
          truncated = truncated || in_sw.truncated[l];
        } else {
          // Input provisioned fewer levels: sub-sample its top level on.
          src.owned = ExtendLevels(in_sw.levels[in_top], l - in_top, &rng);
          truncated = truncated || in_sw.truncated[in_top];
        }
        sources.push_back(std::move(src));
      }
      uint64_t total = KWayMergeRuns(&sources, &runs);
      if (total > capacity) {
        // Keep the most recent `capacity` samples.
        uint64_t excess = total - capacity;
        truncated = true;
        size_t keep_from = 0;
        while (excess > 0 && keep_from < runs.size()) {
          if (runs[keep_from].count <= excess) {
            excess -= runs[keep_from].count;
            ++keep_from;
          } else {
            runs[keep_from].count -= excess;
            excess = 0;
          }
        }
        runs.erase(runs.begin(),
                   runs.begin() + static_cast<ptrdiff_t>(keep_from));
        total = capacity;
      }
      // Re-establish the runs' cumulative-count invariant (truncation
      // moved the front) before handing them to the wave's query path.
      uint64_t cum = 0;
      for (RwSample& r : runs) {
        cum += r.count;
        r.cum = cum;
      }
      out_sw.levels[l].assign(runs.begin(), runs.end());
      out_sw.sizes[l] = total;
      out_sw.truncated[l] = truncated;
    }
  }
  for (const auto* rw : inputs) {
    lifetime += rw->lifetime_count();
    last_ts = std::max(last_ts, rw->last_timestamp());
  }
  merged.set_lifetime_count(lifetime);
  merged.set_last_timestamp(last_ts);
  return merged;
}

}  // namespace ecm
