// Test-only oracles for the library's indexed fast paths: the counters'
// Estimate and the RLZ encoder's gram index.
//
// Each oracle recomputes a result the slow, obvious way from public
// state, so the differential suites can pin the fast paths bit for bit
// without the library shipping a second path.

#ifndef ECM_TESTS_TEST_ORACLES_H_
#define ECM_TESTS_TEST_ORACLES_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "src/dist/compress.h"
#include "src/dist/serialize.h"
#include "src/util/bytes.h"
#include "src/window/exponential_histogram.h"
#include "src/window/randomized_wave.h"
#include "src/window/window_spec.h"

namespace ecm::oracle {

/// ExponentialHistogram::Estimate by a linear walk over Buckets(): sum
/// every bucket that ends past the window boundary, and take half of the
/// oldest such bucket off if it straddles the boundary (paper §3). The
/// sums are exact for in-window masses below 2^53, so this equals the
/// indexed Estimate bit for bit there.
inline double ScanEstimate(const ExponentialHistogram& eh, Timestamp now,
                           uint64_t range) {
  const Timestamp boundary =
      WindowStart(now, std::min(range, eh.window_len()));
  double sum = 0.0;
  bool oldest = true;
  for (const BucketView& b : eh.Buckets()) {
    if (b.end <= boundary) continue;
    sum += static_cast<double>(b.size);
    if (oldest) {
      oldest = false;
      const bool fully_inside =
          boundary == 0 || b.start > boundary || b.start >= b.end;
      if (!fully_inside) sum -= static_cast<double>(b.size) / 2.0;
    }
  }
  return sum;
}

/// RandomizedWave::Estimate by a linear walk over subwaves(): per
/// sub-wave, the finest level whose retained sample still reaches the
/// boundary counts its in-range runs one by one (the coarsest level is
/// the fallback); the answer is the median over sub-waves.
inline double ScanEstimate(const RandomizedWave& rw, Timestamp now,
                           uint64_t range) {
  const Timestamp boundary =
      WindowStart(now, std::min(range, rw.window_len()));
  const int top = rw.num_levels() - 1;
  std::vector<double> ests;
  for (const RandomizedWave::SubWave& sw : rw.subwaves()) {
    double est = static_cast<double>(sw.sizes[top]) *
                 static_cast<double>(1ULL << top);
    for (int l = 0; l <= top; ++l) {
      const auto& level = sw.levels[l];
      const bool covers =
          !sw.truncated[l] || (!level.empty() && level.front().ts <= boundary);
      if (!covers) continue;
      uint64_t in_range = 0;
      for (const RandomizedWave::Sample& s : level) {
        if (s.ts > boundary) in_range += s.count;
      }
      est = static_cast<double>(in_range) * static_cast<double>(1ULL << l);
      break;
    }
    ests.push_back(est);
  }
  auto mid = ests.begin() + ests.size() / 2;
  std::nth_element(ests.begin(), mid, ests.end());
  return *mid;
}

/// RlzEncode with a per-call hash map for the gram index: every gram of
/// the reference maps to its first kRlzMaxCandidates positions, in
/// increasing order, and the greedy factorization extends candidates a
/// byte at a time. The wire image must equal RlzEncode's byte for byte.
inline std::vector<uint8_t> RlzEncode(const std::vector<uint8_t>& reference,
                                      const uint8_t* data, size_t size,
                                      uint64_t epoch) {
  using wire_internal::kRlzGramBytes;
  auto gram_at = [](const uint8_t* p) {
    uint64_t g;
    std::memcpy(&g, p, sizeof(g));
    return g;
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  for (size_t i = 0; i + kRlzGramBytes <= reference.size(); ++i) {
    std::vector<uint32_t>& slots = index[gram_at(reference.data() + i)];
    if (slots.size() < wire_internal::kRlzMaxCandidates) {
      slots.push_back(static_cast<uint32_t>(i));
    }
  }

  ByteWriter ops;
  uint64_t n_ops = 0;
  auto emit_literal = [&](size_t start, size_t end) {
    ops.PutVarint(static_cast<uint64_t>(end - start) << 1);
    ops.PutRaw(data + start, end - start);
    ++n_ops;
  };
  size_t literal_start = 0;  // pending literal run [literal_start, i)
  size_t i = 0;
  while (i < size) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (i + kRlzGramBytes <= size) {
      auto it = index.find(gram_at(data + i));
      if (it != index.end()) {
        for (uint32_t cand : it->second) {
          size_t len = 0;
          const size_t max_len = std::min(size - i, reference.size() - cand);
          while (len < max_len && reference[cand + len] == data[i + len]) {
            ++len;
          }
          if (len > best_len) {
            best_len = len;
            best_off = cand;
          }
        }
      }
    }
    if (best_len >= kRlzGramBytes) {
      if (i > literal_start) emit_literal(literal_start, i);
      ops.PutVarint((static_cast<uint64_t>(best_len) << 1) | 1);
      ops.PutVarint(best_off);
      ++n_ops;
      i += best_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  if (size > literal_start) emit_literal(literal_start, size);

  ByteWriter payload;
  payload.PutVarint(wire_internal::kRlzFormatVersion);
  payload.PutVarint(epoch);
  payload.PutFixed<uint64_t>(
      wire_internal::WireChecksum(reference.data(), reference.size()));
  payload.PutVarint(reference.size());
  payload.PutVarint(size);
  payload.PutVarint(n_ops);
  payload.PutRaw(ops.bytes().data(), ops.size());
  return wire_internal::WrapWirePayload(wire_internal::kRlzMagic, payload);
}

}  // namespace ecm::oracle

#endif  // ECM_TESTS_TEST_ORACLES_H_
