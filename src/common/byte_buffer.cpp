#include "common/byte_buffer.h"

namespace netqos {

void ByteWriter::put_bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::put_string(const std::string& s) {
  out_.insert(out_.end(), s.begin(), s.end());
}

void ByteWriter::patch_u8(std::size_t offset, std::uint8_t v) {
  if (offset >= out_.size()) {
    throw std::out_of_range("ByteWriter::patch_u8 past end");
  }
  out_[offset] = v;
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset > out_.size() || out_.size() - offset < sizeof(v)) {
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
