// Whole-sketch wire serialization (§5.3 deployment path): a site ships its
// ECM-sketch to its parent as a self-describing byte string — magic,
// checksum, the full EcmConfig, the sketch clock, and every counter's own
// wire encoding (window/{exponential_histogram,…}.h SerializeTo).
//
// The wire size of these encodings is the single source of truth for the
// network-transfer accounting of the distributed benches (Fig. 5/6,
// Table 4), so the format favors compactness (varints) but stays exact:
// deserialization reproduces a sketch that answers every query identically
// to the original.
//
// Corruption safety: the header carries an FNV-1a checksum of the entire
// payload, so truncated or bit-flipped inputs are rejected with
// StatusCode::kCorruption instead of parsing into garbage (or worse,
// attempting a giant allocation from a flipped dimension field).

#ifndef ECM_DIST_SERIALIZE_H_
#define ECM_DIST_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace ecm {

/// Appends the wire encoding of a config to `w` (magic "ECMC" + fields).
void SerializeEcmConfig(const EcmConfig& cfg, ByteWriter* w);

/// Decodes and validates a config previously written by SerializeEcmConfig.
/// Dimension fields are bounds-checked so corrupt input cannot request an
/// absurd sketch allocation downstream.
Result<EcmConfig> DeserializeEcmConfig(ByteReader* r);

namespace wire_internal {

/// FNV-1a 64-bit checksum over a byte span.
uint64_t WireChecksum(const uint8_t* data, size_t size);

inline constexpr uint8_t kSketchMagic[4] = {'E', 'C', 'M', 'S'};
inline constexpr size_t kSketchHeaderBytes =
    sizeof(kSketchMagic) + sizeof(uint64_t);

inline constexpr uint8_t kSketchDeltaMagic[4] = {'E', 'C', 'M', 'D'};
inline constexpr uint64_t kSketchDeltaFormatVersion = 1;

/// Verifies `magic` + an FNV-1a payload checksum at the head of
/// [data, data+size) and positions `r` after them. Shared by the sketch,
/// delta and RLZ decoders.
Status CheckWireHeader(const uint8_t* data, size_t size,
                       const uint8_t (&magic)[4], ByteReader* r);

/// Wraps `payload` in the standard header (magic + FNV-1a checksum).
std::vector<uint8_t> WrapWirePayload(const uint8_t (&magic)[4],
                                     const ByteWriter& payload);

}  // namespace wire_internal

/// Serializes a whole sketch: header, config, clock, then all w×d counters
/// row-major.
template <SlidingWindowCounter Counter>
std::vector<uint8_t> SerializeSketch(const EcmSketch<Counter>& sketch) {
  ByteWriter payload;
  const EcmConfig& cfg = sketch.config();
  SerializeEcmConfig(cfg, &payload);
  payload.PutVarint(sketch.Now());
  payload.PutVarint(sketch.l1_lifetime());
  for (int j = 0; j < cfg.depth; ++j) {
    for (uint32_t i = 0; i < cfg.width; ++i) {
      sketch.CounterAt(j, i).SerializeTo(&payload);
    }
  }
  return wire_internal::WrapWirePayload(wire_internal::kSketchMagic, payload);
}

namespace wire_internal {

/// Decodes one counter into `*cell`: in place where the counter supports
/// it (ExponentialHistogram::DecodeFrom), by replacement otherwise.
template <SlidingWindowCounter Counter>
Status DecodeCounter(ByteReader* r, Counter* cell) {
  if constexpr (requires { cell->DecodeFrom(r); }) {
    return cell->DecodeFrom(r);
  } else {
    auto decoded = Counter::Deserialize(r);
    if (!decoded.ok()) return decoded.status();
    *cell = std::move(*decoded);
    return Status::OK();
  }
}

}  // namespace wire_internal

/// Decodes SerializeSketch bytes into `*out`, in place when it already
/// holds a sketch of the image's config (a channel receiver's steady
/// state: no per-cell allocation). Corruption on truncation, checksum
/// mismatch or any malformed field; never crashes on hostile input. A
/// failure before the counters leaves `*out` untouched, a later one
/// empties it.
template <SlidingWindowCounter Counter>
Status DeserializeSketchInto(const uint8_t* data, size_t size,
                             std::optional<EcmSketch<Counter>>* out) {
  ByteReader r(data, size);
  ECM_RETURN_NOT_OK(wire_internal::CheckWireHeader(
      data, size, wire_internal::kSketchMagic, &r));
  auto cfg = DeserializeEcmConfig(&r);
  if (!cfg.ok()) return cfg.status();
  auto now = r.GetVarint();
  if (!now.ok()) return now.status();
  auto l1 = r.GetVarint();
  if (!l1.ok()) return l1.status();
  if (!out->has_value() || !((*out)->config() == *cfg)) out->emplace(*cfg);
  EcmSketch<Counter>& sketch = **out;
  for (int j = 0; j < cfg->depth; ++j) {
    for (uint32_t i = 0; i < cfg->width; ++i) {
      Status st = wire_internal::DecodeCounter(&r, &sketch.CounterAt(j, i));
      if (!st.ok()) {
        out->reset();
        return st;
      }
    }
  }
  if (!r.exhausted()) {
    out->reset();
    return Status::Corruption("trailing bytes after sketch payload");
  }
  sketch.RestoreClock(*now, *l1);
  return Status::OK();
}

/// Reconstructs a sketch from SerializeSketch bytes (DeserializeSketchInto
/// into a fresh sketch).
template <SlidingWindowCounter Counter>
Result<EcmSketch<Counter>> DeserializeSketch(const uint8_t* data,
                                             size_t size) {
  std::optional<EcmSketch<Counter>> sketch;
  ECM_RETURN_NOT_OK(DeserializeSketchInto(data, size, &sketch));
  return std::move(*sketch);
}

template <SlidingWindowCounter Counter>
Result<EcmSketch<Counter>> DeserializeSketch(
    const std::vector<uint8_t>& bytes) {
  return DeserializeSketch<Counter>(bytes.data(), bytes.size());
}

/// Header fields of a delta image (ApplySketchDelta reports them so the
/// receiving channel can chain base-version checks across deltas).
struct SketchDeltaInfo {
  uint64_t epoch = 0;
  uint64_t base_version = 0;  ///< sender's sketch.version() at the base
  uint64_t new_version = 0;   ///< sender's sketch.version() now
  uint64_t n_cells = 0;       ///< dirty cells shipped
};

/// Serializes only the counter cells mutated since `base_version` —
/// the delta between the previously shipped full image (`base_image`,
/// whose checksum pins the base) and the sketch's current state
/// (`new_image` = SerializeSketch(sketch), whose checksum lets the
/// receiver verify the applied result bit-for-bit). `epoch` is the
/// transport rejoin epoch: a receiver on a different epoch must reject
/// the delta and force a full resync.
///
/// Layout: "ECMD" | fixed64 FNV-1a(payload) | payload =
///   varint format | varint epoch | varint base_version | varint
///   new_version | fixed64 base_checksum | varint base_len | fixed64
///   new_checksum | varint new_len | varint now | varint l1 | varint
///   width | varint depth | varint n_cells | n_cells × (varint index
///   delta, counter wire encoding).
template <SlidingWindowCounter Counter>
std::vector<uint8_t> SerializeSketchDelta(
    const EcmSketch<Counter>& sketch, uint64_t base_version, uint64_t epoch,
    const std::vector<uint8_t>& base_image,
    const std::vector<uint8_t>& new_image) {
  ByteWriter payload;
  const EcmConfig& cfg = sketch.config();
  payload.PutVarint(wire_internal::kSketchDeltaFormatVersion);
  payload.PutVarint(epoch);
  payload.PutVarint(base_version);
  payload.PutVarint(sketch.version());
  payload.PutFixed<uint64_t>(
      wire_internal::WireChecksum(base_image.data(), base_image.size()));
  payload.PutVarint(base_image.size());
  payload.PutFixed<uint64_t>(
      wire_internal::WireChecksum(new_image.data(), new_image.size()));
  payload.PutVarint(new_image.size());
  payload.PutVarint(sketch.Now());
  payload.PutVarint(sketch.l1_lifetime());
  payload.PutVarint(cfg.width);
  payload.PutVarint(static_cast<uint64_t>(cfg.depth));
  std::vector<uint32_t> dirty;
  sketch.AppendDirtyCells(base_version, &dirty);
  payload.PutVarint(dirty.size());
  uint32_t prev = 0;
  for (size_t k = 0; k < dirty.size(); ++k) {
    const uint32_t idx = dirty[k];
    payload.PutVarint(k == 0 ? idx : idx - prev);
    prev = idx;
    sketch.CounterAt(static_cast<int>(idx / cfg.width), idx % cfg.width)
        .SerializeTo(&payload);
  }
  return wire_internal::WrapWirePayload(wire_internal::kSketchDeltaMagic,
                                        payload);
}

/// Applies a delta image in place. `expected_epoch` must match the
/// delta's epoch and `base_image` must be byte-identical to the image the
/// sender encoded against (checksum-pinned) — otherwise kStaleBase, with
/// the sketch untouched, and the caller must fall back to a full
/// snapshot. Malformed bytes fail with kCorruption before any mutation.
/// On success returns the new full image (verified bit-identical to the
/// sender's SerializeSketch output — a kInternal failure here means the
/// sketch diverged and the caller must resync). `expected_base_version`,
/// when non-null, additionally pins the sender's version chain.
template <SlidingWindowCounter Counter>
Result<std::vector<uint8_t>> ApplySketchDelta(
    const uint8_t* data, size_t size, uint64_t expected_epoch,
    const std::vector<uint8_t>& base_image, EcmSketch<Counter>* sketch,
    const uint64_t* expected_base_version = nullptr,
    SketchDeltaInfo* info_out = nullptr) {
  ByteReader r(data, size);
  ECM_RETURN_NOT_OK(wire_internal::CheckWireHeader(
      data, size, wire_internal::kSketchDeltaMagic, &r));
  auto fmt = r.GetVarint();
  if (!fmt.ok()) return fmt.status();
  if (*fmt != wire_internal::kSketchDeltaFormatVersion) {
    return Status::Corruption("unsupported sketch delta format version");
  }
  SketchDeltaInfo info;
  auto epoch = r.GetVarint();
  if (!epoch.ok()) return epoch.status();
  info.epoch = *epoch;
  auto base_version = r.GetVarint();
  if (!base_version.ok()) return base_version.status();
  info.base_version = *base_version;
  auto new_version = r.GetVarint();
  if (!new_version.ok()) return new_version.status();
  info.new_version = *new_version;
  auto base_checksum = r.GetFixed<uint64_t>();
  if (!base_checksum.ok()) return base_checksum.status();
  auto base_len = r.GetVarint();
  if (!base_len.ok()) return base_len.status();
  auto new_checksum = r.GetFixed<uint64_t>();
  if (!new_checksum.ok()) return new_checksum.status();
  auto new_len = r.GetVarint();
  if (!new_len.ok()) return new_len.status();
  if (info_out) *info_out = info;
  if (info.epoch != expected_epoch) {
    return Status::StaleBase("sketch delta from a different rejoin epoch");
  }
  if (*base_len != base_image.size() ||
      *base_checksum !=
          wire_internal::WireChecksum(base_image.data(), base_image.size())) {
    return Status::StaleBase("sketch delta against a different base image");
  }
  if (expected_base_version && info.base_version != *expected_base_version) {
    return Status::StaleBase("sketch delta breaks the base-version chain");
  }
  auto now = r.GetVarint();
  if (!now.ok()) return now.status();
  auto l1 = r.GetVarint();
  if (!l1.ok()) return l1.status();
  auto width = r.GetVarint();
  if (!width.ok()) return width.status();
  auto depth = r.GetVarint();
  if (!depth.ok()) return depth.status();
  const EcmConfig& cfg = sketch->config();
  if (*width != cfg.width || *depth != static_cast<uint64_t>(cfg.depth)) {
    return Status::Corruption("sketch delta dimensions mismatch");
  }
  auto n_cells = r.GetVarint();
  if (!n_cells.ok()) return n_cells.status();
  if (*n_cells > sketch->NumCounters()) {
    return Status::Corruption("sketch delta dirty-cell count out of range");
  }
  info.n_cells = *n_cells;
  // Two-phase apply: decode everything first so hostile bytes can never
  // leave the sketch half-mutated.
  std::vector<uint32_t> indices;
  std::vector<Counter> cells;
  indices.reserve(*n_cells);
  cells.reserve(*n_cells);
  uint64_t prev = 0;
  for (uint64_t k = 0; k < *n_cells; ++k) {
    auto gap = r.GetVarint();
    if (!gap.ok()) return gap.status();
    const uint64_t idx = (k == 0) ? *gap : prev + *gap;
    if ((k != 0 && *gap == 0) || idx >= sketch->NumCounters()) {
      return Status::Corruption("sketch delta cell index out of range");
    }
    prev = idx;
    auto counter = Counter::Deserialize(&r);
    if (!counter.ok()) return counter.status();
    indices.push_back(static_cast<uint32_t>(idx));
    cells.push_back(std::move(*counter));
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after sketch delta payload");
  }
  for (size_t k = 0; k < indices.size(); ++k) {
    const uint32_t idx = indices[k];
    sketch->CounterAt(static_cast<int>(idx / cfg.width), idx % cfg.width) =
        std::move(cells[k]);
  }
  sketch->RestoreClock(*now, *l1);
  std::vector<uint8_t> full = SerializeSketch(*sketch);
  if (full.size() != *new_len ||
      wire_internal::WireChecksum(full.data(), full.size()) != *new_checksum) {
    return Status::Internal(
        "sketch delta post-image mismatch: receiver diverged from sender");
  }
  if (info_out) *info_out = info;
  return full;
}

}  // namespace ecm

#endif  // ECM_DIST_SERIALIZE_H_
