// Little-endian binary encoding helpers used by sketch serialization.
//
// The distributed-aggregation substrate measures network cost as the exact
// number of bytes a sketch occupies on the wire, so the encoders here are
// the single source of truth for transfer-volume accounting. Varint
// encoding is used for counts/timestamps since exponential-histogram bucket
// metadata is the dominant payload and is mostly small integers.

#ifndef ECM_UTIL_BYTES_H_
#define ECM_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

namespace ecm {

/// Append-only binary encoder.
class ByteWriter {
 public:
  /// Appends a fixed-width little-endian integer. (insert rather than
  /// resize+memcpy: GCC 12's -Warray-bounds false-fires on the latter
  /// when this inlines into a fixed-size header writer.)
  template <typename T>
  void PutFixed(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  /// Appends an unsigned LEB128 varint.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Appends `n` varints drawn from `next()` with one resize, instead of
  /// a capacity check per byte (the bucket-log encoders' hot loop).
  template <typename Next>
  void PutVarints(size_t n, Next&& next) {
    const size_t start = buf_.size();
    buf_.resize(start + n * 10);  // 10 bytes: the longest uint64 varint
    uint8_t* p = buf_.data() + start;
    for (size_t k = 0; k < n; ++k) {
      uint64_t v = next();
      while (v >= 0x80) {
        *p++ = static_cast<uint8_t>(v) | 0x80;
        v >>= 7;
      }
      *p++ = static_cast<uint8_t>(v);
    }
    buf_.resize(static_cast<size_t>(p - buf_.data()));
  }

  /// Appends a signed varint (zigzag).
  void PutSignedVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  /// Appends raw bytes verbatim (framing helpers in dist/serialize.h).
  void PutRaw(const uint8_t* data, size_t size) {
    buf_.insert(buf_.end(), data, data + size);
  }

  /// Pre-sizes the underlying buffer (fixed-layout writers know their
  /// exact frame size; reserving once also sidesteps GCC 12's bogus
  /// -Wstringop-overflow on the inlined growth path).
  void Reserve(size_t bytes) { buf_.reserve(bytes); }

  /// Appends a double in its IEEE-754 bit pattern.
  void PutDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    PutFixed<uint64_t>(bits);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> MoveBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential binary decoder over a byte span. All getters return
/// Status/Result so corrupt input is reported, never UB.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  template <typename T>
  Result<T> GetFixed() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) {
      return Status::Corruption("truncated fixed-width field");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (pos_ < size_ && shift < 64) {
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
    return Status::Corruption("truncated or overlong varint");
  }

  /// Decodes `n` varints into `sink` with the cursor in a register: the
  /// bucket-log decoders' hot loop, where a Result per value and stores
  /// that may alias pos_ would each cost a round trip through memory.
  /// Corruption on truncated or overlong input.
  template <typename Sink>
  Status GetVarints(uint64_t n, Sink&& sink) {
    const uint8_t* p = data_ + pos_;
    const uint8_t* const end = data_ + size_;
    for (uint64_t k = 0; k < n; ++k) {
      uint64_t v = 0;
      for (int shift = 0;; shift += 7) {
        if (p == end || shift >= 64) {
          return Status::Corruption("truncated or overlong varint");
        }
        const uint8_t b = *p++;
        v |= static_cast<uint64_t>(b & 0x7F) << shift;
        if ((b & 0x80) == 0) break;
      }
      sink(v);
    }
    pos_ = static_cast<size_t>(p - data_);
    return Status::OK();
  }

  Result<int64_t> GetSignedVarint() {
    auto r = GetVarint();
    if (!r.ok()) return r.status();
    uint64_t u = *r;
    return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  Result<double> GetDouble() {
    auto r = GetFixed<uint64_t>();
    if (!r.ok()) return r.status();
    double d;
    uint64_t bits = *r;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }

  /// Returns a pointer to the next `n` unconsumed bytes and advances past
  /// them; Corruption if fewer remain. The span aliases the input buffer.
  Result<const uint8_t*> GetRaw(size_t n) {
    if (n > size_ - pos_) {
      return Status::Corruption("truncated raw byte span");
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

/// Size in bytes of a value when varint-encoded.
size_t VarintLength(uint64_t v);

}  // namespace ecm

#endif  // ECM_UTIL_BYTES_H_
