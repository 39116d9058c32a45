#include "core/serialization.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/byte_io.h"

namespace hk {
namespace {

constexpr uint64_t kMagic = 0x484b534b45544348ULL;  // "HKSKETCH"

// Format history:
//   v1  one (uint32 fp, uint32 c) pair per bucket - the pre-slab layout.
//   v2  one packed word per bucket (counter low, fingerprint high), sized
//       HeavyKeeperConfig::BucketBytes(); the on-disk image of the slab.
// The loader accepts both; the writer emits v2.
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersion = 2;

// magic, version, d, w, b, decay, fp bits, counter bits, seed, expansion
// threshold, max arrays, stuck events, expansions, array count.
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8;

// OR of every packed word's fingerprint field (the bits above `cb`). The
// fingerprint limit is a power of two, so the OR is below it exactly when
// every field is. Words are read unaligned from the wire.
template <typename W>
uint64_t FingerprintBits(const uint8_t* words, size_t count, uint32_t cb) {
  uint64_t bits = 0;
  for (size_t i = 0; i < count; ++i) {
    W word;
    std::memcpy(&word, words + i * sizeof(W), sizeof(W));
    bits |= static_cast<uint64_t>(word) >> cb;
  }
  return bits;
}

// v1 payload -> v2 slab image: pack each (fp, c) pair, saturating the
// counter into its field the way the pre-slab loader did.
template <typename W>
bool PackV1(ByteReader& reader, size_t buckets, uint32_t cb, uint64_t fp_limit,
            std::vector<uint8_t>* image) {
  const uint64_t cmax = cb >= 32 ? 0xffffffffULL : (1ULL << cb) - 1;
  image->resize(buckets * sizeof(W));
  for (size_t i = 0; i < buckets; ++i) {
    uint32_t fp = 0;
    uint32_t c = 0;
    if (!reader.Read(&fp) || !reader.Read(&c) || fp >= fp_limit) {
      return false;
    }
    const W word = static_cast<W>((static_cast<uint64_t>(fp) << cb) | std::min<uint64_t>(c, cmax));
    std::memcpy(image->data() + i * sizeof(W), &word, sizeof(W));
  }
  return true;
}

}  // namespace

size_t SerializedSketchBytes(const HeavyKeeper& sketch) {
  return kHeaderBytes + sketch.SlabImage().size();
}

void SerializeSketch(const HeavyKeeper& sketch, std::vector<uint8_t>* out) {
  const HeavyKeeperConfig& config = sketch.config();
  const std::span<const uint8_t> image = sketch.SlabImage();
  ByteReserve(*out, kHeaderBytes + image.size());
  ByteAppend(*out, kMagic);
  ByteAppend(*out, kVersion);
  ByteAppend(*out, static_cast<uint64_t>(config.d));
  ByteAppend(*out, static_cast<uint64_t>(config.w));
  ByteAppend(*out, config.b);
  ByteAppend(*out, static_cast<uint32_t>(config.decay_function));
  ByteAppend(*out, config.fingerprint_bits);
  ByteAppend(*out, config.counter_bits);
  ByteAppend(*out, config.seed);
  ByteAppend(*out, config.expansion_threshold);
  ByteAppend(*out, static_cast<uint64_t>(config.max_arrays));
  ByteAppend(*out, sketch.stuck_events());
  ByteAppend(*out, sketch.expansions());
  ByteAppend(*out, static_cast<uint64_t>(sketch.num_arrays()));
  // v2 payload: the packed slab words, self-describing via the config
  // fields above (BucketBytes() and CounterFieldBits() derive from them).
  out->insert(out->end(), image.begin(), image.end());
}

std::vector<uint8_t> SerializeSketch(const HeavyKeeper& sketch) {
  std::vector<uint8_t> out;
  SerializeSketch(sketch, &out);
  return out;
}

std::optional<HeavyKeeper> DeserializeSketch(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!reader.Read(&magic) || magic != kMagic || !reader.Read(&version) ||
      (version != kVersionV1 && version != kVersion)) {
    return std::nullopt;
  }

  HeavyKeeperConfig config;
  uint64_t d = 0;
  uint64_t w = 0;
  uint32_t decay_function = 0;
  uint64_t max_arrays = 0;
  uint64_t stuck_events = 0;
  uint64_t expansions = 0;
  uint64_t num_arrays = 0;
  if (!reader.Read(&d) || !reader.Read(&w) || !reader.Read(&config.b) ||
      !reader.Read(&decay_function) || !reader.Read(&config.fingerprint_bits) ||
      !reader.Read(&config.counter_bits) || !reader.Read(&config.seed) ||
      !reader.Read(&config.expansion_threshold) || !reader.Read(&max_arrays) ||
      !reader.Read(&stuck_events) || !reader.Read(&expansions) || !reader.Read(&num_arrays)) {
    return std::nullopt;
  }
  config.d = d;
  config.w = w;
  config.decay_function = static_cast<DecayFunction>(decay_function);
  config.max_arrays = max_arrays;
  // Geometry limits: a legitimate writer can never exceed
  // kMaxPreparedArrays arrays (the constructor clamps d and max_arrays),
  // and Prepare() addresses arrays through a fixed idx[kMaxPreparedArrays]
  // handle - so a header claiming more is corrupt, not just unusual. The
  // same holds for a zero-bit fingerprint (the constructor clamps it to 1).
  if (d == 0 || d > HeavyKeeper::kMaxPreparedArrays ||
      num_arrays > HeavyKeeper::kMaxPreparedArrays ||
      expansions >= HeavyKeeper::kMaxPreparedArrays || config.fingerprint_bits == 0) {
    return std::nullopt;
  }
  if (num_arrays != d + expansions || num_arrays > max_arrays + d || w == 0) {
    return std::nullopt;
  }

  const uint32_t cb = config.CounterFieldBits();
  const bool wide = config.BucketBytes() == 8;
  const uint64_t fp_limit = config.fingerprint_bits >= 32
                                ? (1ULL << 32)
                                : (1ULL << config.fingerprint_bits);
  // Bounded by the remaining bytes before anything is sized from it.
  const uint64_t buckets = num_arrays * w;
  const uint64_t per_bucket = version == kVersionV1 ? 8 : config.BucketBytes();
  if (w > reader.remaining() || buckets * per_bucket != reader.remaining()) {
    return std::nullopt;
  }
  std::vector<uint8_t> v1_image;
  std::span<const uint8_t> image;
  if (version == kVersionV1) {
    // v1: unpacked (fp, c) uint32 pairs from the pre-slab layout.
    const bool packed = wide ? PackV1<uint64_t>(reader, buckets, cb, fp_limit, &v1_image)
                             : PackV1<uint32_t>(reader, buckets, cb, fp_limit, &v1_image);
    if (!packed) {
      return std::nullopt;
    }
    image = v1_image;
  } else {
    image = {reader.Borrow(reader.remaining()), static_cast<size_t>(buckets * per_bucket)};
    const uint64_t fp_bits = wide ? FingerprintBits<uint64_t>(image.data(), buckets, cb)
                                  : FingerprintBits<uint32_t>(image.data(), buckets, cb);
    if (fp_bits >= fp_limit) {
      return std::nullopt;  // a field overflows the packed word: corrupt
    }
  }
  return HeavyKeeper::Restore(config, image, stuck_events, expansions);
}

bool SaveSketch(const HeavyKeeper& sketch, const std::string& path) {
  const auto buffer = SerializeSketch(sketch);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(buffer.data(), 1, buffer.size(), f) == buffer.size();
  std::fclose(f);
  return ok;
}

std::optional<HeavyKeeper> LoadSketch(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return std::nullopt;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> buffer(static_cast<size_t>(size));
  const bool ok = std::fread(buffer.data(), 1, buffer.size(), f) == buffer.size();
  std::fclose(f);
  if (!ok) {
    return std::nullopt;
  }
  return DeserializeSketch(buffer);
}

}  // namespace hk
