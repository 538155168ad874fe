// Compressed sketch propagation (the paper's error-vs-network frontier,
// attacked from the network side): successive wire images of the same
// site's sketch are highly self-similar, so instead of re-shipping a full
// SerializeSketch image every sync, a sender/receiver channel pair ships
// RLZ images ("ECMZ", this header): the full image greedily factorized
// against the previously shipped one as copy(offset, len) and literal ops
// (relative Lempel-Ziv, Hoobin, Puglisi & Zobel, PVLDB 2011). It falls
// back to a full snapshot whenever the RLZ image stops paying for itself
// (content drift past `kMaxCompressedFraction`) or the receiver's base
// is unknown (first contact, channel reset, transport rejoin epoch
// change).
//
// Correctness contract, enforced end-to-end rather than assumed: every
// RLZ image carries the FNV-1a checksum of the reference it was encoded
// against, and the image it decodes to must parse as a checksummed full
// snapshot. A receiver on the wrong base rejects with
// StatusCode::kStaleBase (never a silent wrong merge). Malformed bytes
// fail with kCorruption before any state mutation.

#ifndef ECM_DIST_COMPRESS_H_
#define ECM_DIST_COMPRESS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/serialize.h"
#include "src/util/result.h"

namespace ecm {

// ---------------------------------------------------------------------------
// RLZ codec: byte-level reference compression of wire images.
// ---------------------------------------------------------------------------

namespace wire_internal {
inline constexpr uint8_t kRlzMagic[4] = {'E', 'C', 'M', 'Z'};
inline constexpr uint64_t kRlzFormatVersion = 1;
/// Decoded-image size cap, mirroring SocketTransport's frame bound: a
/// forged length field must never request a giant allocation.
inline constexpr uint64_t kMaxRlzRawBytes = 64ull * 1024 * 1024;
/// Greedy factorization matches are seeded from this many reference
/// bytes: shorter copies rarely beat their op overhead (1–3 varint bytes
/// for the header plus up to 4 for the offset).
inline constexpr size_t kRlzGramBytes = 8;
/// Reference positions kept per gram: its first kRlzMaxCandidates, in
/// increasing order. Successive sketch images are near-aligned, so one or
/// two candidates almost always hold the best match; a small bound keeps
/// hostile/self-similar references from degrading the encoder to
/// quadratic.
inline constexpr size_t kRlzMaxCandidates = 4;
}  // namespace wire_internal

/// Flat open-addressing index of a reference's kRlzGramBytes-byte grams.
/// Each slot is keyed on the exact gram and holds its first reference
/// position; a per-position link leads to the gram's next position, so
/// walking from a slot yields the gram's positions in increasing order.
/// Find() returns the first kRlzMaxCandidates of them. A slot is 4 bytes
/// and a link 4 bytes per reference byte, so a sender's index stays
/// cache-resident next to its reference. Build() clears and refills the
/// arrays in place: a holder that re-indexes every ship (SketchSender)
/// allocates only when a reference outgrows them.
class RlzIndex {
 public:
  /// Clears the index, then indexes every gram of [ref, ref + size). The
  /// reference bytes must outlive every Find() against this build.
  void Build(const uint8_t* ref, size_t size);

  /// Writes the candidate positions of the gram starting at `p` to `out`
  /// in increasing order; returns how many (0 if the reference never
  /// contains it).
  size_t Find(const uint8_t* p,
              uint32_t (&out)[wire_internal::kRlzMaxCandidates]) const;

 private:
  size_t Home(uint64_t gram) const;

  const uint8_t* ref_ = nullptr;
  // 1 + a gram's first position, 0 if empty. Power-of-two size, at most
  // half full.
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> next_;  // 1 + the next position of the same gram
  int shift_ = 64;              // Home() keeps the top log2(size) bits
};

/// Encodes [data, data+size) against `reference` as a checksummed RLZ
/// image: greedy longest-match factorization into copy(offset, len) ops
/// into the reference plus literal runs. `epoch` is the transport rejoin
/// epoch (receivers on a different epoch reject). `index` is rebuilt
/// over `reference`; pass the same one across calls to reuse its table.
///
/// Layout: "ECMZ" | fixed64 FNV-1a(payload) | payload =
///   varint format | varint epoch | fixed64 ref_checksum | varint
///   ref_len | varint raw_len | varint n_ops | ops. Each op is varint
///   (len << 1 | is_copy), then varint offset (copy) or len raw bytes
///   (literal).
std::vector<uint8_t> RlzEncode(const std::vector<uint8_t>& reference,
                               const uint8_t* data, size_t size,
                               uint64_t epoch, RlzIndex* index);

/// Decodes an RLZ image against `reference`. Rejects with kStaleBase when
/// the epoch or the reference (length + checksum) does not match what the
/// sender encoded against, and with kCorruption on any malformed bytes —
/// truncation, bit flips, copy ops past the reference, op lengths that do
/// not reconstruct exactly raw_len bytes. Never reads out of bounds.
Result<std::vector<uint8_t>> RlzDecode(const uint8_t* data, size_t size,
                                       const std::vector<uint8_t>& reference,
                                       uint64_t expected_epoch);

// ---------------------------------------------------------------------------
// Channel layer: per-site sender/receiver pairs with fallback rules.
// ---------------------------------------------------------------------------

/// What a shipped wire image contains. Values are stable wire constants
/// (SocketTransport maps them 1:1 onto frame types).
enum class SketchWireKind : uint8_t {
  kFull = 1,   ///< SerializeSketch bytes ("ECMS")
  kDelta = 2,  ///< retired dirty-cell delta: receivers reject it
  kRlz = 3,    ///< reference-compressed full image ("ECMZ")
};

const char* SketchWireKindName(SketchWireKind kind);

/// Whether a sender may compress. Fallback to kFull is always allowed
/// (and forced on the first image, after Reset, and past the
/// compressibility threshold).
enum class CompressionMode : uint8_t {
  kFull = 0,  ///< always ship full snapshots (the pre-compression wire)
  kAuto = 3,  ///< the default: RLZ against the previous image, full fallback
};

/// A compressed image is shipped only if it is smaller than this fraction
/// of the full snapshot; otherwise the full image goes out (drifted-too-far
/// fallback, and it re-bases the channel).
inline constexpr double kMaxCompressedFraction = 0.9;

struct CompressionOptions {
  CompressionMode mode = CompressionMode::kAuto;
  /// Transport rejoin epoch stamped into every compressed image. Bump on
  /// crash/rejoin (SocketTransport Options::epoch) so stale-base images
  /// from before the crash can never apply.
  uint64_t epoch = 1;
};

/// Wire-volume accounting of one channel endpoint.
struct CompressionStats {
  uint64_t full_images = 0;
  uint64_t delta_images = 0;  ///< always 0: no sender ships deltas
  uint64_t rlz_images = 0;
  uint64_t wire_bytes = 0;  ///< bytes actually shipped
  uint64_t raw_bytes = 0;   ///< full-snapshot bytes they stand in for

  CompressionStats& operator+=(const CompressionStats& o) {
    full_images += o.full_images;
    delta_images += o.delta_images;
    rlz_images += o.rlz_images;
    wire_bytes += o.wire_bytes;
    raw_bytes += o.raw_bytes;
    return *this;
  }
};

/// One shippable image: the kind routes it to the matching frame type /
/// decoder.
struct SketchWireImage {
  SketchWireKind kind = SketchWireKind::kFull;
  std::vector<uint8_t> bytes;
};

/// Sender half of a compressed propagation channel. Tracks the last
/// shipped full image (the reference/base); each Ship() encodes the
/// sketch's current state in the cheapest permitted form. One sender
/// instance per (site sketch, receiver) pair.
template <SlidingWindowCounter Counter>
class SketchSender {
 public:
  explicit SketchSender(const CompressionOptions& opts = {}) : opts_(opts) {}

  /// Encodes the sketch's current state. The first image (and the first
  /// after Reset/set_epoch) is always a full snapshot.
  SketchWireImage Ship(const EcmSketch<Counter>& sketch) {
    std::vector<uint8_t> full = SerializeSketch(sketch);
    stats_.raw_bytes += full.size();
    SketchWireImage img;
    img.kind = SketchWireKind::kFull;
    if (has_base_ && opts_.mode != CompressionMode::kFull) {
      const size_t budget = static_cast<size_t>(
          static_cast<double>(full.size()) * kMaxCompressedFraction);
      std::vector<uint8_t> rlz =
          RlzEncode(reference_, full.data(), full.size(), opts_.epoch,
                    &index_);
      if (rlz.size() < budget) {
        img.kind = SketchWireKind::kRlz;
        img.bytes = std::move(rlz);
      }
    }
    has_base_ = true;
    if (img.kind == SketchWireKind::kFull) {
      // kFull never encodes against a reference, so it keeps none.
      if (opts_.mode != CompressionMode::kFull) {
        reference_.assign(full.begin(), full.end());
      }
      img.bytes = std::move(full);
      ++stats_.full_images;
    } else {
      reference_.swap(full);
      ++stats_.rlz_images;
    }
    stats_.wire_bytes += img.bytes.size();
    return img;
  }

  /// Forgets the base: the next image is a full snapshot. Call when the
  /// receiver may have lost state (reconnect, receiver reset).
  void Reset() { has_base_ = false; }

  /// Rejoin-epoch bump: subsequent images carry the new epoch, and the
  /// channel re-bases with a full snapshot.
  void set_epoch(uint64_t epoch) {
    opts_.epoch = epoch;
    Reset();
  }
  uint64_t epoch() const { return opts_.epoch; }

  const CompressionStats& stats() const { return stats_; }

 private:
  CompressionOptions opts_;
  bool has_base_ = false;
  std::vector<uint8_t> reference_;  // full image shipped/implied last
  RlzIndex index_;                  // gram index of reference_, reused
  CompressionStats stats_;
};

/// Receiver half: decodes images back into a live sketch, maintaining the
/// same reference chain as the sender. Any kStaleBase/kCorruption outcome
/// leaves a consistent state; after a non-OK Receive the caller should
/// request (or wait for) a full snapshot — RLZ images keep rejecting
/// until one arrives. kDelta images always reject, mutating nothing.
///
/// Replay hardening: delivery is at-least-once under retransmitting
/// transports (a retry after a send timeout, or SocketTransport's
/// reconnect retransmit), so a byte-identical re-delivery of the image
/// just applied is *expected* traffic. The receiver keeps the header
/// (magic + payload checksum) of the last successfully applied image and
/// absorbs such duplicates idempotently — returning the current sketch,
/// mutating nothing, never double-merging.
/// Replays of *older* images (same base, but the chain moved on) still
/// reject with kStaleBase via the base-checksum pinning.
template <SlidingWindowCounter Counter>
class SketchReceiver {
 public:
  explicit SketchReceiver(const CompressionOptions& opts = {}) : opts_(opts) {}

  /// Decodes one image. On success returns the up-to-date sketch (owned
  /// by the receiver, valid until the next Receive/Reset).
  Result<const EcmSketch<Counter>*> Receive(SketchWireKind kind,
                                            const uint8_t* data, size_t size) {
    if (IsDuplicateOfLast(kind, data, size)) {
      ++duplicates_absorbed_;
      return &*base_;
    }
    switch (kind) {
      case SketchWireKind::kFull: {
        ECM_RETURN_NOT_OK(DecodeBase(data, size));
        // kFull never decodes against a reference, so it keeps none.
        if (opts_.mode != CompressionMode::kFull) {
          reference_.assign(data, data + size);
        }
        NoteApplied(kind, data, size);
        return &*base_;
      }
      case SketchWireKind::kRlz: {
        auto full = RlzDecode(data, size, reference_, opts_.epoch);
        if (!full.ok()) return full.status();
        ECM_RETURN_NOT_OK(DecodeBase(full->data(), full->size()));
        reference_ = std::move(*full);
        NoteApplied(kind, data, size);
        return &*base_;
      }
      case SketchWireKind::kDelta:
        return Status::InvalidArgument("delta images are not supported");
    }
    return Status::InvalidArgument("unknown sketch wire kind");
  }

  /// Drops the base: compressed images are rejected until the next full
  /// snapshot. Call on transport-level resync.
  void Reset() {
    base_.reset();
    reference_.clear();
    has_last_ = false;
  }

  /// Rejoin-epoch change: images from other epochs reject, and the base
  /// is dropped (the sender re-bases with a full snapshot on its side).
  void set_epoch(uint64_t epoch) {
    opts_.epoch = epoch;
    Reset();
  }
  uint64_t epoch() const { return opts_.epoch; }

  /// Last successfully decoded state, or nullptr before the first image.
  const EcmSketch<Counter>* sketch() const {
    return base_.has_value() ? &*base_ : nullptr;
  }

  /// Byte-identical re-deliveries absorbed without reapplying.
  uint64_t duplicates_absorbed() const { return duplicates_absorbed_; }

 private:
  static constexpr size_t kHeaderBytes = wire_internal::kSketchHeaderBytes;

  /// Decodes a full image into base_; emptying it on failure resets all.
  Status DecodeBase(const uint8_t* data, size_t size) {
    Status st = DeserializeSketchInto(data, size, &base_);
    if (!st.ok() && !base_.has_value()) Reset();
    return st;
  }

  /// True iff this image is the one just applied, base still live. Every
  /// kind starts with magic + payload FNV-1a, so a matching header whose
  /// payload verifies identifies it; other images pay no hashing.
  bool IsDuplicateOfLast(SketchWireKind kind, const uint8_t* data,
                         size_t size) const {
    if (!has_last_ || !base_.has_value() || kind != last_kind_ ||
        size != last_size_ ||
        !std::equal(data, data + kHeaderBytes, last_header_)) {
      return false;
    }
    uint64_t checksum;
    std::memcpy(&checksum, data + kHeaderBytes - sizeof(checksum),
                sizeof(checksum));
    return wire_internal::WireChecksum(data + kHeaderBytes,
                                       size - kHeaderBytes) == checksum;
  }

  void NoteApplied(SketchWireKind kind, const uint8_t* data, size_t size) {
    last_kind_ = kind;
    last_size_ = size;
    std::memcpy(last_header_, data, kHeaderBytes);
    has_last_ = true;
  }

  CompressionOptions opts_;
  std::optional<EcmSketch<Counter>> base_;
  std::vector<uint8_t> reference_;
  // Kind, size and header of the last applied image (duplicates).
  bool has_last_ = false;
  SketchWireKind last_kind_ = SketchWireKind::kFull;
  size_t last_size_ = 0;
  uint8_t last_header_[kHeaderBytes] = {};
  uint64_t duplicates_absorbed_ = 0;
};

}  // namespace ecm

#endif  // ECM_DIST_COMPRESS_H_
