#include "common/byte_buffer.h"

#include <gtest/gtest.h>

namespace netqos {
namespace {

/// The bytes a writer has written, as a vector for EXPECT_EQ.
Bytes written(const ByteWriter& w) {
  return Bytes(w.bytes().begin(), w.bytes().end());
}

TEST(ByteWriter, WritesBigEndianIntegers) {
  ByteWriter w;
  w.put_u8(0x01);
  w.put_u16(0x0203);
  w.put_u32(0x04050607);
  const Bytes expected{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  EXPECT_EQ(written(w), expected);
}

TEST(ByteWriter, WritesU64) {
  ByteWriter w;
  w.put_u64(0x0102030405060708ULL);
  ASSERT_EQ(w.size(), 8u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[7], 0x08);
}

TEST(ByteWriter, AppendsBytesAndStrings) {
  ByteWriter w;
  const Bytes chunk{0xaa, 0xbb};
  w.put_bytes(chunk);
  w.put_string("hi");
  const Bytes expected{0xaa, 0xbb, 'h', 'i'};
  EXPECT_EQ(written(w), expected);
}

TEST(ByteWriter, PatchOverwritesByte) {
  ByteWriter w;
  w.put_u16(0xffff);
  w.patch_u8(0, 0x12);
  EXPECT_EQ(w.bytes()[0], 0x12);
  EXPECT_EQ(w.bytes()[1], 0xff);
}

TEST(ByteWriter, PatchPastEndThrows) {
  ByteWriter w;
  w.put_u8(0);
  EXPECT_THROW(w.patch_u8(1, 0), std::out_of_range);
}

TEST(ByteWriter, PatchU32OverwritesBigEndianWord) {
  ByteWriter w;
  w.put_u8(0xaa);
  w.put_u32(0);
  w.put_u8(0xbb);
  w.patch_u32(1, 0x01020304);
  const Bytes expected{0xaa, 0x01, 0x02, 0x03, 0x04, 0xbb};
  EXPECT_EQ(written(w), expected);
}

TEST(ByteWriter, PatchU32PastEndThrows) {
  ByteWriter w;
  w.put_u32(0);
  EXPECT_NO_THROW(w.patch_u32(0, 1));
  EXPECT_THROW(w.patch_u32(1, 1), std::out_of_range);
  EXPECT_THROW(w.patch_u32(5, 1), std::out_of_range);
}

TEST(ByteWriter, ReusedBufferStartsEmptyAndKeepsCapacity) {
  Bytes buffer(64, 0xee);
  const std::uint8_t* storage = buffer.data();
  ByteWriter w(std::move(buffer));
  EXPECT_EQ(w.size(), 0u);
  w.put_u16(0x0102);
  w.put_u64(0x030405060708090aULL);
  const Bytes expected{0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                       0x07, 0x08, 0x09, 0x0a};
  EXPECT_EQ(written(w), expected);
  EXPECT_EQ(w.bytes().data(), storage);

  // Filling the rest of the capacity still writes in place; taking it
  // trims to the written bytes and keeps the heap.
  for (std::size_t i = w.size(); i < 64; ++i) {
    w.put_u8(static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(w.bytes().data(), storage);
  const Bytes taken = std::move(w).take();
  ASSERT_EQ(taken.size(), 64u);
  EXPECT_EQ(taken.data(), storage);
  EXPECT_EQ(taken[9], 0x0a);
  EXPECT_EQ(taken[63], 63);

  // Growth past a reused buffer's capacity keeps every byte written.
  Bytes small;
  small.reserve(8);
  ByteWriter grown(std::move(small));
  for (std::uint8_t i = 0; i < 20; ++i) grown.put_u8(i);
  grown.put_u64(0x1122334455667788ULL);
  const Bytes grown_bytes = std::move(grown).take();
  ASSERT_EQ(grown_bytes.size(), 28u);
  for (std::uint8_t i = 0; i < 20; ++i) EXPECT_EQ(grown_bytes[i], i);
  EXPECT_EQ(grown_bytes[20], 0x11);
  EXPECT_EQ(grown_bytes[27], 0x88);

  // patch_u32 then take(): the reserved but unwritten region is not part
  // of the frame, neither for a patch nor in what take() returns.
  ByteWriter patched(Bytes(32, 0xee));
  patched.reserve(16);
  patched.put_u32(0);
  patched.put_u8(0xaa);
  patched.patch_u32(0, 0x01020304);
  EXPECT_THROW(patched.patch_u32(2, 0), std::out_of_range);
  EXPECT_EQ(std::move(patched).take(), (Bytes{0x01, 0x02, 0x03, 0x04, 0xaa}));

  // An empty write leaves an empty buffer, fresh or reused, and a reused
  // one keeps its heap for the pool.
  ByteWriter fresh;
  fresh.put_bytes({});
  fresh.put_string("");
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_TRUE(fresh.bytes().empty());
  EXPECT_TRUE(std::move(fresh).take().empty());
  Bytes spare(16, 0xee);
  const std::uint8_t* spare_storage = spare.data();
  ByteWriter reused(std::move(spare));
  reused.reserve(8);
  const Bytes empty = std::move(reused).take();
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), spare_storage);
}

TEST(ByteWriter, TakeMovesBuffer) {
  ByteWriter w;
  w.put_u8(7);
  Bytes taken = std::move(w).take();
  EXPECT_EQ(taken, Bytes{7});
}

TEST(ByteReader, RoundTripsWriter) {
  ByteWriter w;
  w.put_u8(0x11);
  w.put_u16(0x2233);
  w.put_u32(0x44556677);
  w.put_u64(0x8899aabbccddeeffULL);
  w.put_string("xyz");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0x11);
  EXPECT_EQ(r.get_u16(), 0x2233);
  EXPECT_EQ(r.get_u32(), 0x44556677u);
  EXPECT_EQ(r.get_u64(), 0x8899aabbccddeeffULL);
  EXPECT_EQ(r.get_string(3), "xyz");
  EXPECT_TRUE(r.empty());
}

TEST(ByteReader, UnderflowThrows) {
  const Bytes data{0x01};
  ByteReader r(data);
  EXPECT_EQ(r.get_u8(), 0x01);
  EXPECT_THROW(r.get_u8(), BufferUnderflow);
}

TEST(ByteReader, GetU32UnderflowThrows) {
  const Bytes data{0x01, 0x02};
  ByteReader r(data);
  EXPECT_THROW(r.get_u32(), BufferUnderflow);
}

TEST(ByteReader, ShortWordReadConsumesNothing) {
  // Each word is one bounds check: a read that does not fit throws
  // before taking any byte, whatever its width.
  const Bytes data{0x01, 0x02, 0x03};
  ByteReader r(data);
  EXPECT_THROW(r.get_u64(), BufferUnderflow);
  EXPECT_THROW(r.get_u32(), BufferUnderflow);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.get_u16(), 0x0102);
  EXPECT_THROW(r.get_u16(), BufferUnderflow);
  EXPECT_EQ(r.get_u8(), 0x03);
  EXPECT_TRUE(r.empty());
}

TEST(ByteReader, PeekDoesNotConsume) {
  const Bytes data{0x42, 0x43};
  ByteReader r(data);
  EXPECT_EQ(r.peek_u8(), 0x42);
  EXPECT_EQ(r.peek_u8(), 0x42);
  EXPECT_EQ(r.get_u8(), 0x42);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(ByteReader, GetBytesReturnsViewAndAdvances) {
  const Bytes data{1, 2, 3, 4, 5};
  ByteReader r(data);
  auto view = r.get_bytes(3);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 1);
  EXPECT_EQ(view[2], 3);
  EXPECT_EQ(r.position(), 3u);
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(ByteReader, EmptyBufferBehaves) {
  const Bytes data;
  ByteReader r(data);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.peek_u8(), BufferUnderflow);
}

}  // namespace
}  // namespace netqos
