// Whole-sketch wire serialization (§5.3 deployment path): a site ships its
// ECM-sketch to its parent as a self-describing byte string — magic,
// checksum, the full EcmConfig, the sketch clock, and every counter's own
// wire encoding (window/{exponential_histogram,…}.h SerializeTo, read
// back in place by the counter's DecodeFrom).
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

#include <concepts>
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

/// Verifies `magic` + an FNV-1a payload checksum at the head of
/// [data, data+size) and positions `r` after them. Shared by the sketch
/// and RLZ decoders.
Status CheckWireHeader(const uint8_t* data, size_t size,
                       const uint8_t (&magic)[4], ByteReader* r);

/// Wraps `payload` in the standard header (magic + FNV-1a checksum).
std::vector<uint8_t> WrapWirePayload(const uint8_t (&magic)[4],
                                     const ByteWriter& payload);

}  // namespace wire_internal

/// A counter that rides the sketch wire: it appends its own encoding, and
/// its one decode, DecodeFrom, refills a held counter in place (a
/// receiver's cells) instead of building a new one.
template <typename C>
concept WireCounter = SlidingWindowCounter<C> &&
                      requires(C c, const C& cc, ByteWriter* w, ByteReader* r) {
                        cc.SerializeTo(w);
                        { c.DecodeFrom(r) } -> std::same_as<Status>;
                      };

/// Serializes a whole sketch: header, config, clock, then all w×d counters
/// row-major.
template <WireCounter Counter>
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

/// Decodes SerializeSketch bytes into `*out`. When it already holds a
/// sketch of the image's config (a channel receiver's steady state), every
/// cell decodes in place through its DecodeFrom; otherwise a fresh sketch
/// of that config is built first and its cells decode the same way.
/// Corruption on truncation, checksum mismatch, any malformed field or a
/// counter whose last timestamp is ahead of the image's clock; never
/// crashes on hostile input. A failure before the counters leaves `*out`
/// untouched, a later one empties it.
template <WireCounter Counter>
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
      Counter& cell = sketch.CounterAt(j, i);
      Status st = cell.DecodeFrom(&r);
      // A sender's clock never trails its cells (Add, AdvanceTo and Merge
      // all keep Now() >= every cell), and a query at the image's clock
      // must not read a counter that is ahead of it.
      if (st.ok() && cell.last_timestamp() > *now) {
        st = Status::Corruption("sketch counter ahead of the sketch clock");
      }
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
template <WireCounter Counter>
Result<EcmSketch<Counter>> DeserializeSketch(const uint8_t* data,
                                             size_t size) {
  std::optional<EcmSketch<Counter>> sketch;
  ECM_RETURN_NOT_OK(DeserializeSketchInto(data, size, &sketch));
  return std::move(*sketch);
}

template <WireCounter Counter>
Result<EcmSketch<Counter>> DeserializeSketch(
    const std::vector<uint8_t>& bytes) {
  return DeserializeSketch<Counter>(bytes.data(), bytes.size());
}

}  // namespace ecm

#endif  // ECM_DIST_SERIALIZE_H_
