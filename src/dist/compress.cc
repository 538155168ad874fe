#include "src/dist/compress.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/bytes.h"

namespace ecm {
namespace {

using wire_internal::kRlzGramBytes;
using wire_internal::kRlzMaxCandidates;

uint64_t LoadGram(const uint8_t* p) {
  uint64_t g;
  std::memcpy(&g, p, sizeof(g));
  return g;
}

// Length of the common prefix of a and b, at most max_len bytes, compared
// a word at a time (the lowest set bit of the XOR marks the first
// differing byte on the little-endian hosts ByteWriter assumes).
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t len = 0;
  while (len + sizeof(uint64_t) <= max_len) {
    const uint64_t diff = LoadGram(a + len) ^ LoadGram(b + len);
    if (diff != 0) return len + static_cast<size_t>(std::countr_zero(diff)) / 8;
    len += sizeof(uint64_t);
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

struct RlzOps {
  ByteWriter ops;
  uint64_t n_ops = 0;

  void EmitLiteral(const uint8_t* data, size_t len) {
    ops.PutVarint(static_cast<uint64_t>(len) << 1);
    ops.PutRaw(data, len);
    ++n_ops;
  }
  void EmitCopy(size_t offset, size_t len) {
    ops.PutVarint((static_cast<uint64_t>(len) << 1) | 1);
    ops.PutVarint(offset);
    ++n_ops;
  }
};

}  // namespace

const char* SketchWireKindName(SketchWireKind kind) {
  switch (kind) {
    case SketchWireKind::kFull:
      return "full";
    case SketchWireKind::kDelta:
      return "delta";
    case SketchWireKind::kRlz:
      return "rlz";
  }
  return "unknown";
}

size_t RlzIndex::Home(uint64_t gram) const {
  // Fibonacci hash: gram bytes are low-entropy (varint payloads), so
  // spread them and keep the top bits, which depend on every gram byte.
  return static_cast<size_t>((gram * 0x9E3779B97F4A7C15ULL) >> shift_);
}

void RlzIndex::Build(const uint8_t* ref, size_t size) {
  ref_ = ref;
  const size_t grams = size >= kRlzGramBytes ? size - kRlzGramBytes + 1 : 0;
  slots_.assign(grams > 0 ? std::bit_ceil(2 * grams) : 0, 0);
  next_.resize(grams);
  if (grams == 0) return;
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  // Back to front, so each gram's chain runs in increasing position order.
  for (size_t i = grams; i-- > 0;) {
    const uint64_t gram = LoadGram(ref + i);
    size_t h = Home(gram);
    while (slots_[h] != 0 && LoadGram(ref + slots_[h] - 1) != gram) {
      h = (h + 1) & mask;
    }
    next_[i] = slots_[h];
    slots_[h] = static_cast<uint32_t>(i + 1);
  }
}

size_t RlzIndex::Find(const uint8_t* p,
                      uint32_t (&out)[kRlzMaxCandidates]) const {
  if (slots_.empty()) return 0;
  const uint64_t gram = LoadGram(p);
  const size_t mask = slots_.size() - 1;
  for (size_t h = Home(gram); slots_[h] != 0; h = (h + 1) & mask) {
    if (LoadGram(ref_ + slots_[h] - 1) != gram) continue;
    size_t n = 0;
    for (uint32_t e = slots_[h]; e != 0 && n < kRlzMaxCandidates;
         e = next_[e - 1]) {
      out[n++] = e - 1;
    }
    return n;
  }
  return 0;
}

std::vector<uint8_t> RlzEncode(const std::vector<uint8_t>& reference,
                               const uint8_t* data, size_t size,
                               uint64_t epoch, RlzIndex* index) {
  index->Build(reference.data(), reference.size());

  RlzOps out;
  size_t literal_start = 0;  // pending literal run [literal_start, i)
  size_t i = 0;
  while (i < size) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (i + kRlzGramBytes <= size) {
      // The first candidate holding the longest match wins.
      uint32_t cands[kRlzMaxCandidates];
      const size_t n = index->Find(data + i, cands);
      for (size_t k = 0; k < n; ++k) {
        const uint32_t cand = cands[k];
        const size_t len =
            MatchLength(reference.data() + cand, data + i,
                        std::min(size - i, reference.size() - cand));
        if (len > best_len) {
          best_len = len;
          best_off = cand;
        }
      }
    }
    if (best_len >= kRlzGramBytes) {
      if (i > literal_start) {
        out.EmitLiteral(data + literal_start, i - literal_start);
      }
      out.EmitCopy(best_off, best_len);
      i += best_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  if (size > literal_start) {
    out.EmitLiteral(data + literal_start, size - literal_start);
  }

  ByteWriter payload;
  payload.PutVarint(wire_internal::kRlzFormatVersion);
  payload.PutVarint(epoch);
  payload.PutFixed<uint64_t>(
      wire_internal::WireChecksum(reference.data(), reference.size()));
  payload.PutVarint(reference.size());
  payload.PutVarint(size);
  payload.PutVarint(out.n_ops);
  payload.PutRaw(out.ops.bytes().data(), out.ops.size());
  return wire_internal::WrapWirePayload(wire_internal::kRlzMagic, payload);
}

Result<std::vector<uint8_t>> RlzDecode(const uint8_t* data, size_t size,
                                       const std::vector<uint8_t>& reference,
                                       uint64_t expected_epoch) {
  ByteReader r(data, size);
  ECM_RETURN_NOT_OK(
      wire_internal::CheckWireHeader(data, size, wire_internal::kRlzMagic, &r));
  auto fmt = r.GetVarint();
  if (!fmt.ok()) return fmt.status();
  if (*fmt != wire_internal::kRlzFormatVersion) {
    return Status::Corruption("unsupported RLZ format version");
  }
  auto epoch = r.GetVarint();
  if (!epoch.ok()) return epoch.status();
  auto ref_checksum = r.GetFixed<uint64_t>();
  if (!ref_checksum.ok()) return ref_checksum.status();
  auto ref_len = r.GetVarint();
  if (!ref_len.ok()) return ref_len.status();
  auto raw_len = r.GetVarint();
  if (!raw_len.ok()) return raw_len.status();
  auto n_ops = r.GetVarint();
  if (!n_ops.ok()) return n_ops.status();
  if (*epoch != expected_epoch) {
    return Status::StaleBase("RLZ image from a different rejoin epoch");
  }
  if (*ref_len != reference.size() ||
      *ref_checksum !=
          wire_internal::WireChecksum(reference.data(), reference.size())) {
    return Status::StaleBase("RLZ image against a different reference");
  }
  if (*raw_len > wire_internal::kMaxRlzRawBytes) {
    return Status::Corruption("RLZ decoded size implausibly large");
  }
  // Every op contributes at least one payload byte, so more ops than
  // remaining input is malformed regardless of their contents.
  if (*n_ops > r.remaining()) {
    return Status::Corruption("RLZ op count exceeds payload");
  }

  std::vector<uint8_t> out;
  out.reserve(*raw_len);
  for (uint64_t k = 0; k < *n_ops; ++k) {
    auto header = r.GetVarint();
    if (!header.ok()) return header.status();
    const uint64_t len = *header >> 1;
    if (len == 0 || len > *raw_len - out.size()) {
      return Status::Corruption("RLZ op overruns the decoded image");
    }
    if (*header & 1) {
      auto offset = r.GetVarint();
      if (!offset.ok()) return offset.status();
      if (*offset > reference.size() || len > reference.size() - *offset) {
        return Status::Corruption("RLZ copy op past the reference");
      }
      out.insert(out.end(), reference.data() + *offset,
                 reference.data() + *offset + len);
    } else {
      auto lit = r.GetRaw(static_cast<size_t>(len));
      if (!lit.ok()) return lit.status();
      out.insert(out.end(), *lit, *lit + len);
    }
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after RLZ ops");
  }
  if (out.size() != *raw_len) {
    return Status::Corruption("RLZ ops do not reconstruct the full image");
  }
  return out;
}

}  // namespace ecm
