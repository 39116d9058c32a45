// ServeCore: the hk_serve daemon's brain, transport-free.
//
// Hosts a name-keyed map of sketch instances (multi-tenancy: one daemon,
// many sketches, each its own registry spec and byte budget), feeds each
// from an optionally attached capture source through a two-stage ingest
// pipeline, answers the line protocol, and checkpoints/recovers the whole
// map atomically. The TCP listener (serve/line_server.h) and the binary
// (examples/hk_serve.cpp) are thin shells over Execute().
//
// Protocol (one request line in, a response of one or more lines out;
// multi-line responses end with "END"):
//
//   CREATE <name> <spec>          OK created <name>
//   DROP <name>                   OK dropped <name>
//   ATTACH <name> <source> [key=5tuple|pair|src] [bytes]
//                                 OK attached <name>  (starts the ingest stages)
//   LIST                          INSTANCE <name> <spec> packets=<n> source=<s> ... / END
//   TOPK [<name>] <k> [relaxed|exact|window]
//                                 FLOW <id-hex> <estimate> lines / END
//                                 ("window": sliding top-k over the last W
//                                 epochs; ERR unless the instance spec is
//                                 Window:...; END gains window=<W>
//                                 epoch_packets=<E> completed_epochs=<N>)
//   POINT [<name>] <id-hex>       OK <estimate>
//   STATS [<name>]                STAT <key> <value> lines / END
//   METRICS [<filter>]            Prometheus text exposition / END
//                                 (<filter> keeps series whose name starts
//                                 with it, or that carry a matching
//                                 instance="..." label; metric lines always
//                                 start with "hk_" or "#", so the END
//                                 sentinel stays unambiguous)
//   CHECKPOINT                    OK checkpoint <path> instances=<n>
//   PING                          OK pong
//   Anything else                 ERR <diagnostic>
//
// <name> may be omitted from TOPK/POINT/STATS when exactly one instance
// exists (the single-tenant convenience the ISSUE grammar shows). <source>
// is a capture path, "-" for stdin, or "tcp://host:port" for a socket
// streaming pcap bytes; files are slurped unless larger-than-memory
// streaming is forced with "stream:" prefix, pipes/sockets always stream.
//
// Ingest: each attached instance runs two threads joined by a BurstRing
// (common/burst_ring.h) of kIngestSlots bursts (serve_core.cpp), the same
// handoff threaded Sharded and the OVS pipelines use. This is the paper's
// OVS split (Section VII): a datapath thread parses, and a user-space
// thread updates the sketch.
//   * The parse stage skips the recovery prefix, then fills bursts of
//     ingest_batch records: ids (batch-derived), wire lengths for `bytes`
//     bindings, and the malformed-frame delta. It reads through a reader
//     the apply stage opened, into buffers the apply stage allocated.
//   * The apply stage (Instance::ingest) pops bursts in order and, under
//     the instance mutex, InsertBatch()es each one and advances the
//     applied-offset pair. A parsed burst that is never applied is never
//     counted, so checkpoints and recovery see only the applied prefix.
// Neither stage spins: the ring puts a stage to sleep only when its side
// is full or empty, and wakes the parse stage once the ring is half
// drained rather than once per burst.
// ingest_done is stored only after both stages have exited.
//
// Concurrency: every instance carries its own mutex serializing its
// apply stage against queries and checkpoints. Queries go first, but only
// phase-fairly: every other acquisition of the mutex goes through
// LockInstance(), which counts arrivals before and grants after taking
// it. Between bursts the apply stage notes the arrivals so far and sleeps
// until that many grants have been made, so it gives way to the queries
// already waiting but not to ones that come later. Lock order: map_mu_,
// then the instance mutex; the apply stage takes only the instance mutex
// and the ring's, never both at once, and the parse stage takes only the
// ring's. A TOPK ... relaxed on a threaded Sharded front-end bypasses the
// lock entirely (Snapshot(kRelaxed)): it merges the reports its workers
// post at their next burst boundary, so the query answers while the apply
// stage keeps inserting. For
// every other algorithm "relaxed" degrades to a (brief) lock + exact
// snapshot, and the response says which consistency was delivered.
//
// Crash recovery: WriteCheckpoint() locks instances one at a time,
// Flush()es, SaveState()s, and records the applied-packet offset under
// the same lock (state and offset are a consistent pair), then commits
// the manifest with the atomic temp+fsync+rename protocol
// (serve/checkpoint.h). Recover() rebuilds every instance from the
// manifest and re-attaches file sources with the offset skipped - a
// killed and restarted daemon loses nothing from a file-backed stream
// and at most one checkpoint interval from a pipe.
#ifndef HK_SERVE_SERVE_CORE_H_
#define HK_SERVE_SERVE_CORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ingest/pcap_reader.h"
#include "serve/checkpoint.h"
#include "sketch/registry.h"
#include "sketch/topk_algorithm.h"
#include "telemetry/telemetry.h"

namespace hk {

struct ServeOptions {
  std::string checkpoint_path;  // "" = checkpointing disabled
  SketchDefaults defaults;      // context for CREATE specs
  size_t ingest_batch = 512;    // records per ingest InsertBatch burst
};

// The burst ring between an instance's parse and apply stages
// (common/burst_ring.h) and its slot type (serve_core.cpp).
template <typename Slot>
class BurstRing;
struct IngestBurst;

// A parsed ATTACH source binding.
struct SourceBinding {
  std::string source;  // path, "-", or "tcp://host:port"
  PcapKeyPolicy policy = PcapKeyPolicy::kFiveTuple;
  bool byte_weighted = false;
  uint64_t skip_packets = 0;  // recovery: records already applied
};

class ServeCore {
 public:
  explicit ServeCore(ServeOptions options);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  // Execute one protocol line; the returned text is the complete response
  // (every line newline-terminated). Thread-safe.
  std::string Execute(const std::string& line);

  // Programmatic surface (the protocol verbs call these).
  bool Create(const std::string& name, const std::string& spec, std::string* err);
  bool Drop(const std::string& name, std::string* err);
  bool Attach(const std::string& name, const SourceBinding& binding, std::string* err);
  bool WriteCheckpoint(std::string* err);

  // Load options_.checkpoint_path and rebuild every instance (state +
  // source binding + offset skip). Missing file is not an error (fresh
  // start, returns true with *recovered = 0); a corrupt file is.
  bool Recover(size_t* recovered, std::string* err);

  // Wait until every attached ingest pipeline reaches end-of-stream (file
  // sources; a live pipe never ends). Tests and the smoke script use this
  // to sequence "after ingest" assertions.
  void DrainIngest();

  const ServeOptions& options() const { return options_; }
  std::vector<std::string> InstanceNames() const;
  uint64_t PacketsApplied(const std::string& name) const;

 private:
  struct Instance {
    std::string name;
    std::string spec;
    SketchDefaults defaults;
    std::unique_ptr<TopKAlgorithm> algo;
    bool relaxed_capable = false;  // lock-free kRelaxed (see RelaxedCapable)

    // Everything below mu: the algorithm plus the applied-offset pair.
    mutable std::mutex mu;
    uint64_t packets_applied = 0;
    uint64_t wire_bytes_applied = 0;

    // LockInstance() calls that have begun, and those that hold or held
    // mu. Between bursts the apply stage waits until the grants catch up
    // with the arrivals it saw, then competes for mu like anyone else.
    mutable std::atomic<uint32_t> query_arrivals{0};
    mutable std::atomic<uint32_t> query_grants{0};

    // Source binding (set once by Attach, read by checkpoint/LIST).
    SourceBinding binding;
    bool attached = false;
    std::thread ingest;  // the apply stage; it owns the parse stage
    std::atomic<bool> stop_ingest{false};
    std::atomic<bool> ingest_done{false};
    std::string ingest_error;  // set by the apply stage before ingest_done

    // instance="<name>" series, registered when the source attaches.
    telemetry::Counter* tm_packets = nullptr;
    telemetry::Counter* tm_bytes = nullptr;
    telemetry::Counter* tm_malformed = nullptr;
    telemetry::Counter* tm_source_wait_us = nullptr;
  };

  // map_mu_ guards the map shape (create/drop/lookup); per-instance mu
  // guards each algorithm. Lock order: map_mu_ before instance mu.
  Instance* FindLocked(const std::string& name);
  // Resolve a possibly-omitted instance name (single-tenant convenience).
  Instance* Resolve(const std::string& name, std::string* err);

  // Lock inst->mu for anything but the apply stage (queries first).
  static std::unique_lock<std::mutex> LockInstance(const Instance* inst);

  // The apply stage (runs on Instance::ingest) and the parse stage it
  // spawns over the reader and burst scratch it opened and allocated.
  void IngestLoop(Instance* inst);
  void ParseLoop(Instance* inst, PcapReader* reader, std::span<PacketRecord> records,
                 BurstRing<IngestBurst>* ring);

  std::string CmdCreate(const std::vector<std::string>& args);
  std::string CmdDrop(const std::vector<std::string>& args);
  std::string CmdAttach(const std::vector<std::string>& args);
  std::string CmdList();
  std::string CmdTopK(const std::vector<std::string>& args);
  std::string CmdPoint(const std::vector<std::string>& args);
  std::string CmdStats(const std::vector<std::string>& args);
  std::string CmdMetrics(const std::vector<std::string>& args);
  std::string CmdCheckpoint();
  std::string Dispatch(const std::string& verb, const std::vector<std::string>& args);
  std::string Err(const std::string& what);

  ServeOptions options_;
  mutable std::mutex map_mu_;
  std::map<std::string, std::unique_ptr<Instance>> instances_;
  // Serializes whole-manifest writes (protocol CHECKPOINT vs the timer).
  std::mutex checkpoint_mu_;

  // Daemon-wide series; the per-verb pair is registered eagerly for every
  // known verb so METRICS lists the full catalog before any traffic.
  struct VerbMetrics {
    telemetry::Counter* requests = nullptr;
    telemetry::Histogram* latency_us = nullptr;
  };
  std::map<std::string, VerbMetrics> verb_metrics_;
  telemetry::Counter* tm_commands_;
  telemetry::Counter* tm_errors_;
  telemetry::Counter* tm_exact_queries_;
  telemetry::Counter* tm_relaxed_queries_;
  telemetry::Counter* tm_checkpoints_;
  telemetry::Counter* tm_checkpoint_failures_;
  telemetry::Counter* tm_instances_recovered_;
  telemetry::Histogram* tm_burst_packets_;
};

// Parse "key=5tuple|pair|src" / "bytes" attach arguments into a binding.
// Returns false (with *err set) on an unknown token.
bool ParseAttachArgs(const std::vector<std::string>& args, size_t first, SourceBinding* out,
                     std::string* err);

}  // namespace hk

#endif  // HK_SERVE_SERVE_CORE_H_
