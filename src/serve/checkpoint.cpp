#include "serve/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/byte_io.h"
#include "ingest/pcap_reader.h"
#include "telemetry/telemetry.h"

namespace hk {
namespace {

// "HKSERVE1" little-endian; bump the trailing digit on format changes.
constexpr uint64_t kMagic = 0x31455652'45534b48ULL;
constexpr uint32_t kVersion = 1;

// Framing: magic, version, payload length, CRC32(payload), payload.
constexpr size_t kHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) +
                                sizeof(uint32_t);

// Per-instance payload bytes besides the name, spec, source and state
// contents: their four length prefixes, memory/k/seed/offset, and the
// key kind, key policy and byte-weighted flags.
constexpr size_t kInstanceFixedBytes = 4 * sizeof(uint64_t) + 4 * sizeof(uint64_t) + 3;

bool Fail(std::string* error, const std::string& what) {
  if (error != nullptr) {
    *error = what;
  }
  return false;
}

bool DecodePayload(const uint8_t* data, size_t size, CheckpointManifest* out,
                   std::string* error) {
  ByteReader reader(data, size);
  uint64_t count = 0;
  if (!reader.Read(&count)) {
    return Fail(error, "checkpoint payload truncated at the instance count");
  }
  // An instance encodes to > 60 bytes even empty; cheap flood guard before
  // reserving anything.
  if (count > size) {
    return Fail(error, "checkpoint instance count exceeds the payload size");
  }
  CheckpointManifest manifest;
  manifest.instances.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    CheckpointInstance inst;
    if (!reader.ReadString(&inst.name) || !reader.ReadString(&inst.spec) ||
        !reader.Read(&inst.memory_bytes) || !reader.Read(&inst.k) ||
        !reader.Read(&inst.key_kind) || !reader.Read(&inst.seed) ||
        !reader.ReadString(&inst.source) || !reader.Read(&inst.source_key_policy) ||
        !reader.Read(&inst.byte_weighted) || !reader.Read(&inst.packets_applied) ||
        !reader.ReadBlob(&inst.state)) {
      return Fail(error, "checkpoint payload truncated inside instance " + std::to_string(i));
    }
    if (inst.name.empty()) {
      return Fail(error, "checkpoint instance " + std::to_string(i) + " has an empty name");
    }
    if (inst.key_kind > static_cast<uint8_t>(KeyKind::kFiveTuple13B)) {
      return Fail(error, "checkpoint instance " + inst.name + " has an invalid key kind");
    }
    if (inst.source_key_policy > static_cast<uint8_t>(PcapKeyPolicy::kSrcOnly) ||
        inst.byte_weighted > 1) {
      return Fail(error, "checkpoint instance " + inst.name + " has an invalid source binding");
    }
    manifest.instances.push_back(std::move(inst));
  }
  if (!reader.Done()) {
    return Fail(error, "checkpoint payload has trailing bytes");
  }
  *out = std::move(manifest);
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeCheckpoint(const CheckpointManifest& manifest) {
  // One buffer, sized up front: the header goes in with zeroed length and
  // CRC fields, the payload is appended behind it (each SaveState blob
  // copied once), and both fields are patched at the end.
  size_t payload_bytes = sizeof(uint64_t);
  for (const CheckpointInstance& inst : manifest.instances) {
    payload_bytes += kInstanceFixedBytes + inst.name.size() + inst.spec.size() +
                     inst.source.size() + inst.state.size();
  }
  std::vector<uint8_t> file;
  file.reserve(kHeaderBytes + payload_bytes);
  ByteAppend(file, kMagic);
  ByteAppend(file, kVersion);
  const size_t length_at = file.size();
  ByteAppend(file, uint64_t{0});
  ByteAppend(file, uint32_t{0});
  ByteAppend(file, static_cast<uint64_t>(manifest.instances.size()));
  for (const CheckpointInstance& inst : manifest.instances) {
    ByteAppendString(file, inst.name);
    ByteAppendString(file, inst.spec);
    ByteAppend(file, inst.memory_bytes);
    ByteAppend(file, inst.k);
    ByteAppend(file, inst.key_kind);
    ByteAppend(file, inst.seed);
    ByteAppendString(file, inst.source);
    ByteAppend(file, inst.source_key_policy);
    ByteAppend(file, inst.byte_weighted);
    ByteAppend(file, inst.packets_applied);
    ByteAppendBlob(file, inst.state);
  }
  const uint64_t payload_len = file.size() - kHeaderBytes;
  const uint32_t crc = Crc32(file.data() + kHeaderBytes, payload_len);
  std::memcpy(file.data() + length_at, &payload_len, sizeof(payload_len));
  std::memcpy(file.data() + length_at + sizeof(payload_len), &crc, sizeof(crc));
  return file;
}

bool DecodeCheckpoint(const uint8_t* data, size_t size, CheckpointManifest* out,
                      std::string* error) {
  ByteReader reader(data, size);
  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  if (!reader.Read(&magic) || magic != kMagic) {
    return Fail(error, "not a checkpoint file (bad magic)");
  }
  if (!reader.Read(&version) || version != kVersion) {
    return Fail(error, "unsupported checkpoint version");
  }
  if (!reader.Read(&payload_len) || !reader.Read(&crc)) {
    return Fail(error, "checkpoint header truncated");
  }
  // Exact-length check: a torn tail *and* appended garbage both fail here,
  // before the CRC gets a say.
  if (payload_len != reader.remaining()) {
    return Fail(error, "checkpoint payload length mismatch (torn or truncated write)");
  }
  const uint8_t* payload = reader.Borrow(static_cast<size_t>(payload_len));
  if (payload == nullptr) {
    return Fail(error, "checkpoint payload truncated");
  }
  if (Crc32(payload, static_cast<size_t>(payload_len)) != crc) {
    static telemetry::Counter* const crc_failures = telemetry::Registry::Get().GetCounter(
        "hk_serve_crc_failures_total", "Checkpoint payloads rejected by the CRC check");
    crc_failures->Add();
    return Fail(error, "checkpoint payload failed CRC (corrupt write)");
  }
  return DecodePayload(payload, static_cast<size_t>(payload_len), out, error);
}

bool WriteCheckpointAtomic(const std::string& path, const CheckpointManifest& manifest,
                           std::string* error) {
  static telemetry::Histogram* const checkpoint_us = telemetry::Registry::Get().GetHistogram(
      "hk_serve_checkpoint_us", "Encode-to-rename checkpoint commit latency (microseconds)");
  static telemetry::Gauge* const checkpoint_bytes = telemetry::Registry::Get().GetGauge(
      "hk_serve_checkpoint_bytes", "Encoded size of the most recent checkpoint file");
  const telemetry::ScopedTimer timer(checkpoint_us);
  const std::vector<uint8_t> bytes = EncodeCheckpoint(manifest);
  checkpoint_bytes->Set(static_cast<int64_t>(bytes.size()));
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Fail(error, "open " + tmp + ": " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const std::string what = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return Fail(error, "write " + tmp + ": " + what);
    }
    written += static_cast<size_t>(n);
  }
  // Durability order: file contents, then the rename, then the directory
  // entry - the sequence that makes the rename the commit point.
  if (::fsync(fd) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Fail(error, "fsync " + tmp + ": " + what);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string what = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Fail(error, "rename " + tmp + " -> " + path + ": " + what);
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best-effort: the rename itself already landed
    ::close(dir_fd);
  }
  return true;
}

bool LoadCheckpoint(const std::string& path, CheckpointManifest* out, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Fail(error, "open " + path + ": " + std::strerror(errno));
  }
  // One allocation sized from fstat, filled by read(2) in place. A file
  // that changes size underneath still fails safely: the decoder checks
  // the framed length against the bytes actually read.
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    return Fail(error, "stat " + path + ": " + what);
  }
  const size_t capacity = static_cast<size_t>(st.st_size);
  const std::unique_ptr<uint8_t[]> bytes = std::make_unique_for_overwrite<uint8_t[]>(capacity);
  size_t size = 0;
  while (size < capacity) {
    const ssize_t n = ::read(fd, bytes.get() + size, capacity - size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const std::string what = std::strerror(errno);
      ::close(fd);
      return Fail(error, "read " + path + ": " + what);
    }
    if (n == 0) {
      break;
    }
    size += static_cast<size_t>(n);
  }
  ::close(fd);
  return DecodeCheckpoint(bytes.get(), size, out, error);
}

bool RemoveStaleCheckpointTemp(const std::string& path) {
  return ::unlink((path + ".tmp").c_str()) == 0;
}

}  // namespace hk
