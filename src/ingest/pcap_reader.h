// PcapReader: real-trace ingestion without external dependencies.
//
// Reads classic pcap and pcapng captures (both endiannesses, the nanosecond
// pcap variant, per-interface pcapng timestamp resolutions), walks
// Ethernet/VLAN or Linux cooked (SLL/SLL2, the `tcpdump -i any` framing)
// -> IPv4/IPv6 -> TCP/UDP headers, and yields one
// PacketRecord per IP packet: capture timestamp, original wire length, the
// parsed header fields, and a FlowId derived under a selectable key policy
// (the flow definitions of Section VI-A):
//
//   * kFiveTuple - src/dst IP + ports + proto (the campus flow definition),
//   * kAddrPair  - src/dst IP pair (the CAIDA flow definition),
//   * kSrcOnly   - source IP alone (DDoS-style per-source aggregation).
//
// IPv6 addresses are folded to 32 bits (XOR of the four address words)
// before entering the FiveTuple, so one key pipeline serves both IP
// versions; the fold is deterministic and collision behaviour is the same
// class the paper's fingerprint analysis covers.
//
// Robustness contract (tests/ingest_pcap_format_test.cpp): every length is
// bounds-checked against the bytes actually present, so a truncated or
// hostile capture can never make the reader over-read. Malformed per-packet
// payloads (short headers, unknown ethertypes, zero captured bytes) are
// skipped and counted in stats(); malformed *container* structure (bad
// magic, bogus caplen, truncated record header) stops the stream cleanly
// with ok() == false and a diagnostic in error(). An unsupported linktype
// fails Open() for classic pcap and skips the interface for pcapng.
//
// Two ingestion modes share the parsing core:
//
//   * slurp (Open / OpenBuffer) - the whole capture is loaded up front
//     (captures at the repo's bench scale are file-cache resident anyway),
//     and Rewind() restarts the packet stream without re-reading the file,
//     which is how multi-pass consumers (oracle + replay, benchmark loops)
//     avoid I/O in the hot loop;
//   * streaming (OpenStream) - bytes are pulled incrementally from a
//     ByteSource into a bounded window that is compacted as records are
//     consumed, so pipes, sockets, stdin, and captures larger than memory
//     all work. Memory is bounded by one record's caplen (itself capped at
//     kMaxSaneCaplen), Rewind() is refused, and a source that ends
//     mid-record reports the same malformed-container diagnostics as a
//     truncated file.
//
// Gzip'd captures are recognized by magic on open and refused with a
// targeted error (pipe through zcat into OpenStream instead).
#ifndef HK_INGEST_PCAP_READER_H_
#define HK_INGEST_PCAP_READER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flow_key.h"
#include "ingest/byte_source.h"
#include "ingest/pcap_format.h"

namespace hk {

// How a parsed packet's header fields become the canonical 64-bit FlowId.
enum class PcapKeyPolicy {
  kFiveTuple,  // FiveTuple::Id()            (KeyKind::kFiveTuple13B)
  kAddrPair,   // AddrPair::Id()             (KeyKind::kAddrPair8B)
  kSrcOnly,    // SrcOnlyId(src_ip)          (KeyKind::kSynthetic4B)
};

// The KeyKind charged for memory accounting under each policy.
KeyKind ToKeyKind(PcapKeyPolicy policy);

// Parse "5tuple" / "pair" / "src" (also accepts the registry's numeric
// key widths 13 / 8 / 4). Returns false on anything else.
bool ParsePcapKeyPolicy(const std::string& text, PcapKeyPolicy* out);
const char* PcapKeyPolicyName(PcapKeyPolicy policy);

// One ingested packet. `tuple` holds the parsed header fields (ports zero
// when the transport header is absent or truncated); `id` is derived from
// `tuple` under the reader's key policy.
struct PacketRecord {
  uint64_t timestamp_ns = 0;  // capture timestamp, nanoseconds since epoch
  uint32_t wire_len = 0;      // original packet length on the wire
  FiveTuple tuple;
  FlowId id = 0;
};

struct IngestStats {
  uint64_t packets = 0;            // records yielded
  uint64_t wire_bytes = 0;         // sum of yielded wire_len
  uint64_t skipped_non_ip = 0;     // ARP & friends, unknown ethertypes
  uint64_t skipped_truncated = 0;  // captured slice too short to parse L2/L3
  uint64_t skipped_other = 0;      // zero-length records, unknown interfaces
};

class PcapReader {
 public:
  explicit PcapReader(PcapKeyPolicy policy = PcapKeyPolicy::kFiveTuple) : policy_(policy) {}

  // Slurp + parse the container header. False on I/O error or a capture
  // that is not pcap/pcapng (error() says why).
  bool Open(const std::string& path);

  // Adopt an in-memory capture (tests, synthetic sources).
  bool OpenBuffer(std::vector<uint8_t> data);

  // Incremental mode: pull bytes from `source` on demand instead of
  // slurping. The buffered window stays bounded (one in-flight record plus
  // a read-ahead chunk); Next() blocks inside the source when the stream
  // runs dry. False when the source failed to open or the leading
  // container header is not pcap/pcapng.
  bool OpenStream(std::unique_ptr<ByteSource> source);
  bool streaming() const { return source_ != nullptr; }

  // Yield the next IP packet. Returns false at end-of-stream or when the
  // container is malformed beyond recovery; ok() distinguishes the two.
  bool Next(PacketRecord* out);

  // Restart the packet stream (and stats) over the already-loaded capture.
  // Streaming captures cannot rewind: the call fails the stream (ok()
  // turns false) instead of silently replaying a partial window.
  void Rewind();

  // True while the stream is well-formed; false after a malformed-container
  // stop (error() carries the diagnostic). End-of-file keeps ok() true.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  const IngestStats& stats() const { return stats_; }
  PcapFormat format() const { return format_; }
  PcapKeyPolicy policy() const { return policy_; }
  KeyKind key_kind() const { return ToKeyKind(policy_); }

  // Defer id derivation: Next() leaves PacketRecord::id at 0 and the caller
  // runs DerivePacketIds over whole batches instead (the TraceReplayer
  // burst loop does - the byte hash vectorizes across records there, where
  // per-record it cannot). Off by default; every scalar consumer keeps
  // getting derived ids.
  void set_defer_ids(bool defer) { defer_ids_ = defer; }
  bool defer_ids() const { return defer_ids_; }

 private:
  struct Interface {
    uint32_t link_type = pcapfmt::kLinkTypeEthernet;
    uint32_t snaplen = 0;
    // Timestamp ticks are 10^-tsresol seconds (or 2^-tsresol when
    // tsresol_pow2); classic pcap maps to 6 (micro) or 9 (nano).
    uint8_t tsresol = 6;
    bool tsresol_pow2 = false;
    bool supported = true;
  };

  static uint64_t TicksToNs(const Interface& iface, uint64_t ticks);
  static bool SupportedLinkType(uint32_t link_type);
  bool ParseContainerHeader();
  // Ensure >= `need` unread bytes are buffered. Slurp mode: a pure
  // availability check. Streaming: compact the consumed prefix, then pull
  // from the source until satisfied or end-of-stream.
  bool Refill(size_t need);
  size_t Available() const { return end_ - offset_; }
  bool SourceEof();
  bool NextClassic(PacketRecord* out);
  bool NextNg(PacketRecord* out);
  // Parse one captured slice starting at the link layer. Returns true and
  // fills `out` when the slice holds an IP packet; false = skip (stats
  // updated).
  bool ParseFrame(const uint8_t* data, size_t caplen, uint32_t link_type, PacketRecord* out);
  bool ParseIp(const uint8_t* data, size_t len, PacketRecord* out);
  void DeriveId(PacketRecord* out) const;
  bool Malformed(const std::string& what);

  // Bounds-checked little/big-endian loads relative to offset_.
  uint16_t Load16(const uint8_t* p) const;
  uint32_t Load32(const uint8_t* p) const;

  PcapKeyPolicy policy_;
  bool defer_ids_ = false;
  std::vector<uint8_t> data_;
  // End of the loaded bytes. Slurp: data_.size(). Streaming: data_ is the
  // window's capacity, and only [0, end_) holds source bytes.
  size_t end_ = 0;
  std::unique_ptr<ByteSource> source_;  // non-null = streaming mode
  bool source_eof_ = false;
  size_t offset_ = 0;       // next unread byte
  size_t body_start_ = 0;   // first record/block after the container header
  bool swapped_ = false;    // container endianness != host
  PcapFormat format_ = PcapFormat::kPcap;
  // Classic pcap: the single pseudo-interface; pcapng: one per IDB.
  std::vector<Interface> interfaces_;
  IngestStats stats_;
  std::string error_;
};

// Batch id derivation: records[i].id becomes exactly what Next() would
// have derived under `policy` (FiveTuple/AddrPair/SrcOnly Id()), computed
// lane-parallel via simd/hash_batch.h where the host supports it. Pairs
// with PcapReader::set_defer_ids(true).
void DerivePacketIds(PcapKeyPolicy policy, PacketRecord* records, size_t n);

}  // namespace hk

#endif  // HK_INGEST_PCAP_READER_H_
