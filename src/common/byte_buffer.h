// Bounds-checked byte buffer reader/writer.
//
// The SNMP BER codec and the packet framing code build and parse raw byte
// strings; ByteWriter/ByteReader centralize the bounds checking so codec
// code never touches raw pointers. Multi-byte integers move as one
// big-endian word behind one bounds check, inline: every wire format
// (BER, query frames, probe packets) runs through these calls.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace netqos {

using Bytes = std::vector<std::uint8_t>;

/// Thrown when a reader runs off the end of its input.
class BufferUnderflow : public std::runtime_error {
 public:
  explicit BufferUnderflow(const std::string& what)
      : std::runtime_error("buffer underflow: " + what) {}
};

namespace detail {

/// Converts between host order and big-endian (an involution).
template <typename T>
constexpr T big_endian(T v) {
  static_assert(std::endian::native == std::endian::little ||
                    std::endian::native == std::endian::big,
                "mixed-endian hosts are not supported");
  if constexpr (std::endian::native == std::endian::big || sizeof(T) == 1) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

}  // namespace detail

/// Appends big-endian integers and raw bytes to an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes into `buffer`, reusing its heap capacity (contents are
  /// discarded). Pairs with BufferPool to make encoding allocation-free.
  explicit ByteWriter(Bytes buffer) : out_(std::move(buffer)) {
    out_.clear();
  }

  void reserve(std::size_t n) { out_.reserve(n); }

  void put_u8(std::uint8_t v) { out_.push_back(v); }
  void put_u16(std::uint16_t v) { put_word(v); }
  void put_u32(std::uint32_t v) { put_word(v); }
  void put_u64(std::uint64_t v) { put_word(v); }
  void put_bytes(std::span<const std::uint8_t> data);
  void put_string(const std::string& s);

  /// Overwrites a single previously written byte (for length back-patching).
  void patch_u8(std::size_t offset, std::uint8_t v);
  /// Overwrites four previously written bytes with a big-endian word.
  void patch_u32(std::size_t offset, std::uint32_t v);

  std::size_t size() const { return out_.size(); }
  const Bytes& bytes() const& { return out_; }
  Bytes take() && { return std::move(out_); }

 private:
  template <typename T>
  void put_word(T v) {
    const T wire = detail::big_endian(v);
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &wire, sizeof(T));
  }

  Bytes out_;
};

/// Consumes big-endian integers and raw bytes from a borrowed buffer.
/// The underlying storage must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8() { return get_word<std::uint8_t>(); }
  std::uint16_t get_u16() { return get_word<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_word<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_word<std::uint64_t>(); }
  /// Returns a view of the next n bytes and advances past them.
  std::span<const std::uint8_t> get_bytes(std::size_t n);
  std::string get_string(std::size_t n);

  /// Next byte without consuming it.
  std::uint8_t peek_u8() const {
    require(1);
    return data_[pos_];
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  T get_word() {
    require(sizeof(T));
    T wire;
    std::memcpy(&wire, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return detail::big_endian(wire);
  }

  void require(std::size_t n) const {
    if (remaining() < n) underflow(n);
  }
  [[noreturn]] void underflow(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace netqos
