#include "common/byte_buffer.h"

#include <algorithm>

namespace netqos {

void ByteWriter::grow(std::size_t n) {
  // The buffer's own capacity first: a reused buffer does not allocate
  // while its heap suffices. Past it, at least double.
  const std::size_t need = len_ + n;
  out_.resize(need <= out_.capacity()
                  ? out_.capacity()
                  : std::max(need, 2 * out_.capacity()));
}

void ByteWriter::patch_u8(std::size_t offset, std::uint8_t v) {
  if (offset >= len_) {
    throw std::out_of_range("ByteWriter::patch_u8 past end");
  }
  out_[offset] = v;
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset > len_ || len_ - offset < sizeof(v)) {
    throw std::out_of_range("ByteWriter::patch_u32 past end");
  }
  const std::uint32_t wire = detail::big_endian(v);
  std::memcpy(out_.data() + offset, &wire, sizeof(wire));
}

void ByteReader::underflow(std::size_t n) const {
  throw BufferUnderflow("need " + std::to_string(n) + " bytes, have " +
                        std::to_string(remaining()));
}

std::span<const std::uint8_t> ByteReader::get_bytes(std::size_t n) {
  require(n);
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::string ByteReader::get_string(std::size_t n) {
  auto view = get_bytes(n);
  return std::string(view.begin(), view.end());
}

}  // namespace netqos
