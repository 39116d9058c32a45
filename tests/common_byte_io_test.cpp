// byte_io.h: the slice-by-8 CRC-32 against the bitwise definition it
// replaced, and the in-place length-prefix helpers the SaveState paths use.
#include "common/byte_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"

namespace hk {
namespace {

// The bitwise CRC-32 (IEEE 802.3, reflected): the reference the table
// version must reproduce bit for bit.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xedb88320u : 0u);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

TEST(ByteIoCrc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(ByteIoCrc32, MatchesBitwiseAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> bytes = RandomBytes(256 + 8, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, len), BitwiseCrc32(p, len)) << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(p, len, 0x9e3779b9u), BitwiseCrc32(p, len, 0x9e3779b9u))
          << "seeded, offset " << offset << " len " << len;
    }
  }
}

TEST(ByteIoCrc32, SeedChainsAcrossSplits) {
  const std::vector<uint8_t> bytes = RandomBytes(1000, 23);
  const uint32_t whole = Crc32(bytes);
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{333}, size_t{1000}}) {
    const uint32_t a = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, a), whole) << "split " << split;
  }
}

TEST(ByteIoSized, BackpatchesTheLengthLikeByteAppendBlob) {
  const std::vector<uint8_t> blob = RandomBytes(77, 5);
  std::vector<uint8_t> staged = {9, 9};
  ByteAppendBlob(staged, blob);

  std::vector<uint8_t> in_place = {9, 9};
  ASSERT_TRUE(ByteAppendSized(in_place, [&blob](std::vector<uint8_t>& out) {
    out.insert(out.end(), blob.begin(), blob.end());
    return true;
  }));
  EXPECT_EQ(in_place, staged);

  ByteReader reader(in_place.data() + 2, in_place.size() - 2);
  std::span<const uint8_t> view;
  ASSERT_TRUE(reader.BorrowBlob(&view));
  EXPECT_TRUE(reader.Done());
  EXPECT_EQ(view.data(), in_place.data() + 2 + sizeof(uint64_t));
  EXPECT_EQ(std::vector<uint8_t>(view.begin(), view.end()), blob);
}

TEST(ByteIoSized, FailedWriterLeavesTheOutputAsItWas) {
  std::vector<uint8_t> out = {1, 2, 3};
  EXPECT_FALSE(ByteAppendSized(out, [](std::vector<uint8_t>& o) {
    ByteAppend(o, uint64_t{0xeeeeeeeeeeeeeeee});  // a partial write before the failure
    return false;
  }));
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(ByteIoSized, BorrowBlobRejectsAShortFrame) {
  std::vector<uint8_t> out;
  ByteAppendBlob(out, RandomBytes(10, 3));
  ByteReader reader(out.data(), out.size() - 1);
  std::span<const uint8_t> view;
  EXPECT_FALSE(reader.BorrowBlob(&view));
}

TEST(ByteIoReserve, GrowsGeometrically) {
  std::vector<uint8_t> out;
  ByteReserve(out, 100);
  EXPECT_GE(out.capacity(), 100u);
  out.resize(100);
  const size_t before = out.capacity();
  ByteReserve(out, 1);
  EXPECT_GE(out.capacity(), 2 * before);
}

}  // namespace
}  // namespace hk
