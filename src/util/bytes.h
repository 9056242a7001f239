#ifndef HOSR_UTIL_BYTES_H_
#define HOSR_UTIL_BYTES_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/statusor.h"

namespace hosr::util {

// The one binary codec behind every artifact and wire frame: the matrix
// block (tensor/serialize.h), the parameter checkpoint, the optimizer and
// training states, the serving snapshot and the hosr::net protocol. Numbers
// are fixed-width, little-endian and IEEE-754 whatever the host's byte
// order; each format's layout is documented next to its encoder.

inline constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

// Appends to a caller-owned string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_arithmetic_v<T>);
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    if constexpr (!kLittleEndianHost) std::reverse(bytes, bytes + sizeof(T));
    out_->append(bytes, sizeof(T));
  }
  void PutBytes(std::string_view bytes) { out_->append(bytes); }
  void PutFloats(const float* values, size_t n) {
    if constexpr (kLittleEndianHost) {
      out_->append(reinterpret_cast<const char*>(values), n * sizeof(float));
    } else {
      for (size_t i = 0; i < n; ++i) Put(values[i]);
    }
  }
  // A string after its length as an L.
  template <typename L>
  void PutString(std::string_view s) {
    Put(static_cast<L>(s.size()));
    PutBytes(s);
  }
  // The magic / version / endian-marker prefix of the training state and
  // the serving snapshot, which ByteReader::GetHeader checks.
  void PutHeader(uint32_t magic, uint32_t version);

 private:
  std::string* out_;
};

// A bounds-checked cursor over a byte buffer. Every Get fails, consuming
// nothing, when fewer bytes remain than it needs, so no decoder reads past
// the end of its input.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_arithmetic_v<T>);
    if (remaining() < sizeof(T)) return false;
    char bytes[sizeof(T)];
    std::memcpy(bytes, data_.data() + pos_, sizeof(T));
    if constexpr (!kLittleEndianHost) std::reverse(bytes, bytes + sizeof(T));
    std::memcpy(value, bytes, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  // Views the next `n` bytes.
  bool GetBytes(uint64_t n, std::string_view* out) {
    if (n > remaining()) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  bool GetFloats(float* out, size_t n) {
    if (!Holds(n, sizeof(float))) return false;
    if constexpr (kLittleEndianHost) {
      std::copy_n(data_.data() + pos_, n * sizeof(float),
                  reinterpret_cast<char*>(out));
      pos_ += n * sizeof(float);
    } else {
      for (size_t i = 0; i < n; ++i) Get(&out[i]);
    }
    return true;
  }
  // PutString's bytes, with an L length.
  template <typename L>
  bool GetString(std::string* out) {
    const size_t start = pos_;
    L size = 0;
    std::string_view bytes;
    if (!Get(&size) || !GetBytes(size, &bytes)) {
      pos_ = start;
      return false;
    }
    out->assign(bytes);
    return true;
  }

  // True when `count` more items of `width` bytes remain. A decoder asks
  // before it sizes a buffer from a count it read, so a corrupt count can
  // never allocate more than the input holds.
  bool Holds(uint64_t count, uint64_t width) const {
    return count <= remaining() / width;
  }
  size_t remaining() const { return data_.size() - pos_; }

  // The DataLoss a file decoder returns when its body ends early.
  Status Truncated(const char* what) const;

  // Checks PutHeader's prefix and returns its version. A wrong magic, a
  // version outside [min_version, max_version] or a foreign endian marker
  // is InvalidArgument naming `what`.
  StatusOr<uint32_t> GetHeader(uint32_t magic, uint32_t min_version,
                               uint32_t max_version, const char* what);

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace hosr::util

#endif  // HOSR_UTIL_BYTES_H_
