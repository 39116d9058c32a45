#include "serve/serve_core.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/burst_ring.h"
#include "ingest/byte_source.h"
#include "serve/net.h"
#include "shard/sharded_topk.h"
#include "window/windowed_topk.h"

namespace hk {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

bool ParseUint(const std::string& text, uint64_t* out, int base = 10) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, base);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

// Open the reader for a binding: "-" and "tcp://..." always stream,
// "stream:<path>" forces the bounded-buffer incremental mode, a bare path
// slurps (which also makes the recovery offset skip an in-memory walk).
bool OpenSource(PcapReader& reader, const SourceBinding& binding, std::string* err) {
  const std::string& src = binding.source;
  if (src == "-") {
    if (!reader.OpenStream(MakeFileByteSource("-"))) {
      *err = reader.error();
      return false;
    }
    return true;
  }
  std::string host;
  uint16_t port = 0;
  if (ParseTcpEndpoint(src, &host, &port)) {
    const int fd = ConnectTcp(host, port, err);
    if (fd < 0) {
      return false;
    }
    if (!reader.OpenStream(MakeFdByteSource(fd, /*own_fd=*/true))) {
      *err = reader.error();
      return false;
    }
    return true;
  }
  constexpr const char kStream[] = "stream:";
  if (src.rfind(kStream, 0) == 0) {
    if (!reader.OpenStream(MakeFileByteSource(src.substr(sizeof(kStream) - 1)))) {
      *err = reader.error();
      return false;
    }
    return true;
  }
  if (!reader.Open(src)) {
    *err = reader.error();
    return false;
  }
  return true;
}

// True when Snapshot(kRelaxed) may run on a query thread while the ingest
// thread inserts, so TOPK ... relaxed can skip the instance lock: only the
// threaded sharded front-end.
bool RelaxedCapable(const TopKAlgorithm* algo) {
  const auto* sharded = dynamic_cast<const ShardedTopK*>(algo);
  return sharded != nullptr && sharded->threaded();
}

// A binding whose source can be replayed from the start after a restart
// (recovery skips the applied prefix - zero loss). Pipes and sockets
// cannot rewind; their loss bound is the checkpoint interval.
bool ReplayableSource(const std::string& source) {
  return source != "-" && source.rfind("tcp://", 0) != 0;
}

// Frames the capture parser skipped, by any reason.
uint64_t MalformedFrames(const IngestStats& s) {
  return s.skipped_non_ip + s.skipped_truncated + s.skipped_other;
}

}  // namespace

// Parse stage -> apply stage handoff (common/burst_ring.h): bursts in
// stream order.
constexpr uint32_t kIngestSlots = 8;

// One parsed burst: what the apply stage inserts and accounts for.
struct IngestBurst {
  std::vector<FlowId> ids;
  std::vector<uint64_t> weights;  // wire lengths; `bytes` bindings only
  uint64_t wire_bytes = 0;
  uint64_t malformed = 0;       // frames skipped while this burst was parsed
  uint64_t source_wait_us = 0;  // time spent reading and parsing it
};

bool ParseAttachArgs(const std::vector<std::string>& args, size_t first, SourceBinding* out,
                     std::string* err) {
  for (size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "bytes") {
      out->byte_weighted = true;
      continue;
    }
    if (arg.rfind("key=", 0) == 0) {
      if (!ParsePcapKeyPolicy(arg.substr(4), &out->policy)) {
        *err = "key= must be 5tuple, pair or src (got '" + arg.substr(4) + "')";
        return false;
      }
      continue;
    }
    *err = "unknown ATTACH argument '" + arg + "' (expected key=... or bytes)";
    return false;
  }
  return true;
}

ServeCore::ServeCore(ServeOptions options) : options_(std::move(options)) {
  telemetry::Registry& registry = telemetry::Registry::Get();
  tm_commands_ = registry.GetCounter("hk_serve_commands_total", "Protocol lines executed");
  tm_errors_ = registry.GetCounter("hk_serve_errors_total", "Protocol lines answered with ERR");
  tm_exact_queries_ = registry.GetCounter("hk_serve_exact_queries_total",
                                          "TOPK/POINT queries served at exact consistency");
  tm_relaxed_queries_ = registry.GetCounter(
      "hk_serve_relaxed_queries_total",
      "TOPK queries served from the live structures without the ingest lock");
  tm_checkpoints_ =
      registry.GetCounter("hk_serve_checkpoints_total", "Checkpoint manifests committed");
  tm_checkpoint_failures_ = registry.GetCounter("hk_serve_checkpoint_failures_total",
                                                "Checkpoint attempts that failed");
  tm_instances_recovered_ = registry.GetCounter(
      "hk_serve_instances_recovered_total", "Instances rebuilt from a checkpoint at startup");
  tm_burst_packets_ = registry.GetHistogram(
      "hk_ingest_burst_packets", "Records applied per ingest burst (one InsertBatch call)");
  // Eager per-verb registration: the full catalog shows up in METRICS
  // before any request has been served.
  for (const char* verb : {"CREATE", "DROP", "ATTACH", "LIST", "TOPK", "POINT", "STATS",
                           "METRICS", "CHECKPOINT", "PING"}) {
    const std::string labels = std::string("verb=\"") + verb + "\"";
    verb_metrics_[verb] = VerbMetrics{
        registry.GetCounter("hk_serve_requests_total", "Protocol requests by verb", labels),
        registry.GetHistogram("hk_serve_request_us",
                              "Request handling latency by verb (microseconds)", labels)};
  }
}

std::string ServeCore::Err(const std::string& what) {
  tm_errors_->Add();
  return "ERR " + what + "\n";
}

ServeCore::~ServeCore() {
  std::lock_guard<std::mutex> lock(map_mu_);
  for (auto& [name, inst] : instances_) {
    inst->stop_ingest.store(true, std::memory_order_release);
    if (inst->ingest.joinable()) {
      inst->ingest.join();
    }
  }
}

ServeCore::Instance* ServeCore::FindLocked(const std::string& name) {
  const auto it = instances_.find(name);
  return it == instances_.end() ? nullptr : it->second.get();
}

ServeCore::Instance* ServeCore::Resolve(const std::string& name, std::string* err) {
  if (!name.empty()) {
    Instance* inst = FindLocked(name);
    if (inst == nullptr) {
      *err = "no instance named '" + name + "'";
    }
    return inst;
  }
  if (instances_.size() == 1) {
    return instances_.begin()->second.get();
  }
  *err = instances_.empty() ? "no instances (CREATE one first)"
                            : "multiple instances: name one explicitly";
  return nullptr;
}

bool ServeCore::Create(const std::string& name, const std::string& spec, std::string* err) {
  if (name.empty() || name.find('/') != std::string::npos) {
    *err = "instance names must be non-empty and slash-free";
    return false;
  }
  std::unique_ptr<TopKAlgorithm> algo;
  try {
    algo = MakeSketch(spec, options_.defaults);
  } catch (const std::invalid_argument& e) {
    *err = e.what();
    return false;
  }
  std::lock_guard<std::mutex> lock(map_mu_);
  if (FindLocked(name) != nullptr) {
    *err = "instance '" + name + "' already exists";
    return false;
  }
  auto inst = std::make_unique<Instance>();
  inst->name = name;
  inst->spec = spec;
  inst->defaults = options_.defaults;
  inst->relaxed_capable = RelaxedCapable(algo.get());
  inst->algo = std::move(algo);
  instances_.emplace(name, std::move(inst));
  return true;
}

bool ServeCore::Drop(const std::string& name, std::string* err) {
  std::unique_ptr<Instance> victim;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    const auto it = instances_.find(name);
    if (it == instances_.end()) {
      *err = "no instance named '" + name + "'";
      return false;
    }
    victim = std::move(it->second);
    instances_.erase(it);
  }
  // Join outside map_mu_ so a blocked ingest read cannot stall the map.
  victim->stop_ingest.store(true, std::memory_order_release);
  if (victim->ingest.joinable()) {
    victim->ingest.join();
  }
  return true;
}

bool ServeCore::Attach(const std::string& name, const SourceBinding& binding,
                       std::string* err) {
  std::lock_guard<std::mutex> lock(map_mu_);
  Instance* inst = FindLocked(name);
  if (inst == nullptr) {
    *err = "no instance named '" + name + "'";
    return false;
  }
  if (inst->attached) {
    *err = "instance '" + name + "' already has a source";
    return false;
  }
  // Validate the source up front so ATTACH fails loudly instead of the
  // ingest stages dying silently. The parse stage re-opens its own reader.
  {
    PcapReader probe(binding.policy);
    if (ReplayableSource(binding.source) && !OpenSource(probe, binding, err)) {
      return false;
    }
  }
  inst->binding = binding;
  inst->attached = true;
  // Register the instance's ingest series here (not in the thread) so the
  // metric names are visible to METRICS the moment ATTACH returns.
  {
    telemetry::Registry& registry = telemetry::Registry::Get();
    const std::string labels = "instance=\"" + inst->name + "\"";
    inst->tm_packets = registry.GetCounter(
        "hk_ingest_packets_total", "Capture records applied to an instance's sketch", labels);
    inst->tm_bytes = registry.GetCounter(
        "hk_ingest_bytes_total", "Wire bytes represented by the applied records", labels);
    inst->tm_malformed = registry.GetCounter(
        "hk_ingest_malformed_frames_total",
        "Frames the capture parser skipped (non-IP, truncated, zero-length)", labels);
    inst->tm_source_wait_us = registry.GetCounter(
        "hk_ingest_source_wait_us_total",
        "Microseconds the parse stage spent reading and parsing its source", labels);
  }
  inst->ingest_done.store(false, std::memory_order_release);
  inst->ingest = std::thread([this, inst] { IngestLoop(inst); });
  return true;
}

std::unique_lock<std::mutex> ServeCore::LockInstance(const Instance* inst) {
  inst->query_arrivals.fetch_add(1, std::memory_order_release);
  std::unique_lock<std::mutex> lock(inst->mu);
  inst->query_grants.fetch_add(1, std::memory_order_release);
  inst->query_grants.notify_one();  // the apply stage may be giving way
  return lock;
}

void ServeCore::IngestLoop(Instance* inst) {
  // Everything the parse stage touches is built here, before its thread
  // starts, so the parse thread does not allocate on its normal path. It
  // then attaches no glibc arena of its own: once that thread exits,
  // malloc_trim cannot shrink the idle arena's top chunk, and the
  // reader's window would stay resident there.
  PcapReader reader(inst->binding.policy);
  reader.set_defer_ids(true);  // ids are derived per burst (DerivePacketIds)
  std::string err;
  if (!OpenSource(reader, inst->binding, &err)) {
    inst->ingest_error = err;
    inst->ingest_done.store(true, std::memory_order_release);
    inst->ingest_done.notify_all();
    return;
  }
  std::vector<PacketRecord> records(std::max<size_t>(options_.ingest_batch, 1));
  const bool weighted = inst->binding.byte_weighted;
  BurstRing<IngestBurst> ring(kIngestSlots, kIngestSlots / 2, [&](IngestBurst& burst) {
    burst.ids.reserve(records.size());
    if (weighted) {
      burst.weights.reserve(records.size());
    }
  });
  std::thread parse([&] { ParseLoop(inst, &reader, records, &ring); });
  while (!inst->stop_ingest.load(std::memory_order_acquire)) {
    const IngestBurst* burst = ring.AcquireFull();
    if (burst == nullptr) {
      break;
    }
    const size_t n = burst->ids.size();
    tm_burst_packets_->Observe(n);
    // Queries go first: the lock is re-taken straight after each burst,
    // so without this a waiting query would queue behind several. The
    // stage gives way only to the queries that arrived before this burst
    // boundary, so a steady stream of queries cannot starve ingest.
    const uint32_t due = inst->query_arrivals.load(std::memory_order_acquire);
    uint32_t granted = inst->query_grants.load(std::memory_order_acquire);
    while (static_cast<int32_t>(due - granted) > 0) {
      inst->query_grants.wait(granted, std::memory_order_acquire);
      granted = inst->query_grants.load(std::memory_order_acquire);
    }
    {
      // The applied-offset pair (sketch state, packets_applied) moves
      // under the instance lock, which is what lets a checkpoint taken
      // between bursts record a consistent cut of the stream.
      std::lock_guard<std::mutex> lock(inst->mu);
      if (weighted) {
        inst->algo->InsertBatch(burst->ids, burst->weights);
      } else {
        inst->algo->InsertBatch(burst->ids);
      }
      inst->packets_applied += n;
      inst->wire_bytes_applied += burst->wire_bytes;
    }
    // The parse stage's counters are added here too (see ParseLoop).
    inst->tm_packets->Add(n);
    inst->tm_bytes->Add(burst->wire_bytes);
    inst->tm_malformed->Add(burst->malformed);
    inst->tm_source_wait_us->Add(burst->source_wait_us);
    ring.Release();
  }
  ring.Close();
  parse.join();
  if (!reader.ok()) {
    inst->ingest_error = reader.error();
  }
  inst->ingest_done.store(true, std::memory_order_release);
  inst->ingest_done.notify_all();
}

void ServeCore::ParseLoop(Instance* inst, PcapReader* reader, std::span<PacketRecord> records,
                          BurstRing<IngestBurst>* ring) {
  // No telemetry calls here: a counter's first Add on a thread allocates
  // its cells. Each burst carries its figures to the apply stage instead.
  // Recovery: the checkpointed prefix is already in the sketch.
  for (uint64_t skipped = 0; skipped < inst->binding.skip_packets; ++skipped) {
    if (!reader->Next(&records[0])) {
      ring->Finish();
      return;
    }
  }
  const bool weighted = inst->binding.byte_weighted;
  uint64_t malformed_seen = MalformedFrames(reader->stats());
  bool more = true;
  while (more && !inst->stop_ingest.load(std::memory_order_acquire)) {
    // Source-stall time: reading and parsing the capture source, the
    // number that tells an operator the pipe, not the sketch, is the
    // bottleneck.
    using Clock = std::chrono::steady_clock;
    const bool timed = telemetry::Registry::Enabled();
    const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
    size_t n = 0;
    while (n < records.size() && (more = reader->Next(&records[n]))) {
      ++n;
    }
    DerivePacketIds(reader->policy(), records.data(), n);
    if (n == 0) {
      break;
    }
    uint64_t source_wait_us = 0;
    if (timed) {
      source_wait_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count());
    }
    IngestBurst* burst = ring->AcquireFree();
    if (burst == nullptr) {
      break;  // the apply stage stopped
    }
    burst->ids.resize(n);
    burst->weights.resize(weighted ? n : 0);
    burst->wire_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      burst->ids[i] = records[i].id;
      burst->wire_bytes += records[i].wire_len;
      if (weighted) {
        burst->weights[i] = records[i].wire_len;
      }
    }
    const uint64_t malformed_now = MalformedFrames(reader->stats());
    burst->malformed = malformed_now - malformed_seen;
    malformed_seen = malformed_now;
    burst->source_wait_us = source_wait_us;
    ring->Publish();
  }
  ring->Finish();
}

void ServeCore::DrainIngest() {
  std::vector<Instance*> attached;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    for (auto& [name, inst] : instances_) {
      if (inst->attached) {
        attached.push_back(inst.get());
      }
    }
  }
  for (Instance* inst : attached) {
    // Blocks on the flag itself: both stores of true notify, so a drain
    // ends as soon as the apply stage exits.
    inst->ingest_done.wait(false, std::memory_order_acquire);
  }
}

bool ServeCore::WriteCheckpoint(std::string* err) {
  if (options_.checkpoint_path.empty()) {
    *err = "checkpointing disabled (no --checkpoint path)";
    return false;
  }
  std::lock_guard<std::mutex> ckpt_lock(checkpoint_mu_);
  CheckpointManifest manifest;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    manifest.instances.reserve(instances_.size());
    for (auto& [name, inst] : instances_) {
      CheckpointInstance entry;
      entry.name = inst->name;
      entry.spec = inst->spec;
      entry.memory_bytes = inst->defaults.memory_bytes;
      entry.k = inst->defaults.k;
      entry.key_kind = static_cast<uint8_t>(inst->defaults.key_kind);
      entry.seed = inst->defaults.seed;
      {
        const std::unique_lock<std::mutex> inst_lock = LockInstance(inst.get());
        inst->algo->Flush();
        if (!inst->algo->SaveState(&entry.state)) {
          *err = "instance '" + inst->name + "' (" + inst->algo->name() +
                 ") does not support checkpointing";
          tm_checkpoint_failures_->Add();
          return false;
        }
        entry.packets_applied = inst->packets_applied;
      }
      if (inst->attached) {
        entry.source = inst->binding.source;
        entry.source_key_policy = static_cast<uint8_t>(inst->binding.policy);
        entry.byte_weighted = inst->binding.byte_weighted ? 1 : 0;
      }
      manifest.instances.push_back(std::move(entry));
    }
  }
  if (!WriteCheckpointAtomic(options_.checkpoint_path, manifest, err)) {
    tm_checkpoint_failures_->Add();
    return false;
  }
  tm_checkpoints_->Add();
  return true;
}

bool ServeCore::Recover(size_t* recovered, std::string* err) {
  if (recovered != nullptr) {
    *recovered = 0;
  }
  if (options_.checkpoint_path.empty()) {
    return true;
  }
  // A crash mid-write leaves a stale temp next to the (intact) previous
  // checkpoint; clear it so nothing ever reads it.
  RemoveStaleCheckpointTemp(options_.checkpoint_path);
  CheckpointManifest manifest;
  std::string load_err;
  if (!LoadCheckpoint(options_.checkpoint_path, &manifest, &load_err)) {
    if (load_err.rfind("open ", 0) == 0) {
      return true;  // no checkpoint yet: fresh start
    }
    *err = load_err;
    return false;
  }
  for (const CheckpointInstance& entry : manifest.instances) {
    SketchDefaults defaults;
    defaults.memory_bytes = static_cast<size_t>(entry.memory_bytes);
    defaults.k = static_cast<size_t>(entry.k);
    defaults.key_kind = static_cast<KeyKind>(entry.key_kind);
    defaults.seed = entry.seed;
    std::unique_ptr<TopKAlgorithm> algo;
    try {
      algo = MakeSketch(entry.spec, defaults);
    } catch (const std::invalid_argument& e) {
      *err = "instance '" + entry.name + "': " + e.what();
      return false;
    }
    if (!algo->LoadState(entry.state.data(), entry.state.size())) {
      *err = "instance '" + entry.name + "': checkpoint state rejected by " + algo->name();
      return false;
    }
    auto inst = std::make_unique<Instance>();
    inst->name = entry.name;
    inst->spec = entry.spec;
    inst->defaults = defaults;
    inst->relaxed_capable = RelaxedCapable(algo.get());
    inst->algo = std::move(algo);
    inst->packets_applied = entry.packets_applied;
    Instance* raw = inst.get();
    {
      std::lock_guard<std::mutex> lock(map_mu_);
      if (FindLocked(entry.name) != nullptr) {
        *err = "instance '" + entry.name + "' already exists (recover before CREATE)";
        return false;
      }
      instances_.emplace(entry.name, std::move(inst));
    }
    if (!entry.source.empty()) {
      SourceBinding binding;
      binding.source = entry.source;
      binding.policy = static_cast<PcapKeyPolicy>(entry.source_key_policy);
      binding.byte_weighted = entry.byte_weighted != 0;
      binding.skip_packets = ReplayableSource(entry.source) ? entry.packets_applied : 0;
      std::string attach_err;
      if (!Attach(entry.name, binding, &attach_err)) {
        // The sketch state recovered; a vanished source should not brick
        // the daemon. Surface it through the instance's ingest_error.
        raw->ingest_error = attach_err;
      }
    }
    tm_instances_recovered_->Add();
    if (recovered != nullptr) {
      ++*recovered;
    }
  }
  return true;
}

std::vector<std::string> ServeCore::InstanceNames() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::vector<std::string> names;
  names.reserve(instances_.size());
  for (const auto& [name, inst] : instances_) {
    names.push_back(name);
  }
  return names;
}

uint64_t ServeCore::PacketsApplied(const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto it = instances_.find(name);
  if (it == instances_.end()) {
    return 0;
  }
  const std::unique_lock<std::mutex> inst_lock = LockInstance(it->second.get());
  return it->second->packets_applied;
}

std::string ServeCore::CmdCreate(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return Err("usage: CREATE <name> <spec>");
  }
  std::string err;
  if (!Create(args[0], args[1], &err)) {
    return Err(err);
  }
  return "OK created " + args[0] + "\n";
}

std::string ServeCore::CmdDrop(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Err("usage: DROP <name>");
  }
  std::string err;
  if (!Drop(args[0], &err)) {
    return Err(err);
  }
  return "OK dropped " + args[0] + "\n";
}

std::string ServeCore::CmdAttach(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Err("usage: ATTACH <name> <source> [key=5tuple|pair|src] [bytes]");
  }
  SourceBinding binding;
  binding.source = args[1];
  std::string err;
  if (!ParseAttachArgs(args, 2, &binding, &err) || !Attach(args[0], binding, &err)) {
    return Err(err);
  }
  return "OK attached " + args[0] + "\n";
}

std::string ServeCore::CmdList() {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::string out;
  for (const auto& [name, inst] : instances_) {
    uint64_t packets = 0;
    {
      const std::unique_lock<std::mutex> inst_lock = LockInstance(inst.get());
      packets = inst->packets_applied;
    }
    out += "INSTANCE " + name + " " + inst->spec + " packets=" + std::to_string(packets) +
           " source=" + (inst->attached ? inst->binding.source : "none");
    if (inst->ingest_done.load(std::memory_order_acquire) && !inst->ingest_error.empty()) {
      out += " ingest_error=1";
    }
    out += "\n";
  }
  out += "END\n";
  return out;
}

std::string ServeCore::CmdTopK(const std::vector<std::string>& args) {
  // Grammar: TOPK [<name>] <k> [relaxed|exact|window]. A leading numeric
  // token means the name was omitted (single-tenant convenience). "window"
  // asks for the sliding recent-traffic answer and is only valid against a
  // Window: instance - the caller is asserting window semantics, so a
  // silent since-boot fallback would be a wrong answer, not a convenience.
  std::string name;
  size_t pos = 0;
  uint64_t k = 0;
  if (pos < args.size() && !ParseUint(args[pos], &k)) {
    name = args[pos++];
  }
  if (pos >= args.size() || !ParseUint(args[pos], &k) || k == 0) {
    return Err("usage: TOPK [<name>] <k> [relaxed|exact|window]");
  }
  ++pos;
  bool relaxed = false;
  bool windowed = false;
  if (pos < args.size()) {
    if (args[pos] == "relaxed") {
      relaxed = true;
    } else if (args[pos] == "window") {
      windowed = true;
    } else if (args[pos] != "exact") {
      return Err("consistency must be 'relaxed', 'exact' or 'window'");
    }
    ++pos;
  }
  if (pos != args.size()) {
    return Err("usage: TOPK [<name>] <k> [relaxed|exact|window]");
  }
  QueryResult result;
  std::string window_suffix;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    std::string err;
    Instance* inst = Resolve(name, &err);
    if (inst == nullptr) {
      return Err(err);
    }
    const QueryOptions query{static_cast<size_t>(k), relaxed ? ConsistencyLevel::kRelaxed
                                                             : ConsistencyLevel::kExact};
    if (windowed) {
      auto* window = dynamic_cast<WindowedTopK*>(inst->algo.get());
      if (window == nullptr) {
        return Err("instance '" + inst->name + "' is not windowed (spec " +
                                  inst->spec + "); CREATE it with Window:...");
      }
      const std::unique_lock<std::mutex> inst_lock = LockInstance(inst);
      result = window->Snapshot(query);
      window_suffix = " window=" + std::to_string(window->window_epochs()) +
                      " epoch_packets=" + std::to_string(window->epoch_packets()) +
                      " completed_epochs=" + std::to_string(window->completed_epochs());
    } else if (relaxed && inst->relaxed_capable) {
      // The whole point of kRelaxed: answer without taking the ingest
      // lock - writers never stall.
      result = inst->algo->Snapshot(query);
    } else {
      const std::unique_lock<std::mutex> inst_lock = LockInstance(inst);
      result = inst->algo->Snapshot(query);
    }
  }
  (result.consistency == ConsistencyLevel::kRelaxed ? tm_relaxed_queries_ : tm_exact_queries_)
      ->Add();
  // "FLOW <hex id> <count>\n" lines, formatted in place into one buffer.
  std::string out;
  out.reserve(result.flows.size() * 48 + 128);
  char line[48] = "FLOW ";
  char* const end = line + sizeof(line);
  for (const FlowCount& flow : result.flows) {
    char* p = std::to_chars(line + 5, end, flow.id, 16).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, flow.count).ptr;
    *p++ = '\n';
    out.append(line, p);
  }
  out += std::string("END consistency=") +
         (result.consistency == ConsistencyLevel::kRelaxed ? "relaxed" : "exact") +
         " tracked=" + std::to_string(result.stats.tracked_flows) +
         " min=" + std::to_string(result.stats.min_tracked) + window_suffix + "\n";
  return out;
}

std::string ServeCore::CmdPoint(const std::vector<std::string>& args) {
  std::string name;
  size_t pos = 0;
  uint64_t id = 0;
  if (args.size() == 2) {
    name = args[pos++];
  }
  if (pos + 1 != args.size() || !ParseUint(args[pos], &id, 16)) {
    return Err("usage: POINT [<name>] <flow-id-hex>");
  }
  uint64_t estimate = 0;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    std::string err;
    Instance* inst = Resolve(name, &err);
    if (inst == nullptr) {
      return Err(err);
    }
    const std::unique_lock<std::mutex> inst_lock = LockInstance(inst);
    estimate = inst->algo->EstimateSize(id);
  }
  tm_exact_queries_->Add();
  return "OK " + std::to_string(estimate) + "\n";
}

std::string ServeCore::CmdStats(const std::vector<std::string>& args) {
  if (args.empty()) {
    // The STAT key set and order are wire format (tests and dashboards
    // parse them); the values now come from the registry, where the ingest
    // keys sum the per-instance hk_ingest_* series.
    telemetry::Registry& registry = telemetry::Registry::Get();
    const auto line = [](const char* key, uint64_t value) {
      return std::string("STAT ") + key + " " + std::to_string(value) + "\n";
    };
    std::string out;
    out += line("commands", tm_commands_->Value());
    out += line("errors", tm_errors_->Value());
    out += line("exact_queries", tm_exact_queries_->Value());
    out += line("relaxed_queries", tm_relaxed_queries_->Value());
    out += line("packets_ingested", registry.SumCounter("hk_ingest_packets_total"));
    out += line("wire_bytes_ingested", registry.SumCounter("hk_ingest_bytes_total"));
    out += line("checkpoints_written", tm_checkpoints_->Value());
    out += line("checkpoint_failures", tm_checkpoint_failures_->Value());
    out += line("instances_recovered", tm_instances_recovered_->Value());
    {
      std::lock_guard<std::mutex> lock(map_mu_);
      out += "STAT instances " + std::to_string(instances_.size()) + "\n";
    }
    out += "END\n";
    return out;
  }
  if (args.size() != 1) {
    return Err("usage: STATS [<name>]");
  }
  std::lock_guard<std::mutex> lock(map_mu_);
  std::string err;
  Instance* inst = Resolve(args[0], &err);
  if (inst == nullptr) {
    return Err(err);
  }
  uint64_t packets = 0;
  uint64_t wire_bytes = 0;
  size_t memory = 0;
  std::string algo_name;
  std::string simd_kernel;
  {
    const std::unique_lock<std::mutex> inst_lock = LockInstance(inst);
    packets = inst->packets_applied;
    wire_bytes = inst->wire_bytes_applied;
    memory = inst->algo->MemoryBytes();
    algo_name = inst->algo->name();
    simd_kernel = inst->algo->ActiveSimdKernel();
  }
  std::string out;
  out += "STAT spec " + inst->spec + "\n";
  out += "STAT algo " + algo_name + "\n";
  if (!simd_kernel.empty()) {
    out += "STAT simd " + simd_kernel + "\n";
  }
  out += "STAT packets_applied " + std::to_string(packets) + "\n";
  out += "STAT wire_bytes_applied " + std::to_string(wire_bytes) + "\n";
  out += "STAT memory_bytes " + std::to_string(memory) + "\n";
  out += "STAT source " + (inst->attached ? inst->binding.source : "none") + "\n";
  const bool ingest_done = inst->ingest_done.load(std::memory_order_acquire);
  out += "STAT ingest_done " + std::to_string(ingest_done ? 1 : 0) + "\n";
  // The apply stage writes ingest_error just before ingest_done; an
  // instance whose source failed to re-attach on recovery has no stages.
  if ((ingest_done || !inst->attached) && !inst->ingest_error.empty()) {
    out += "STAT ingest_error " + inst->ingest_error + "\n";
  }
  out += "END\n";
  return out;
}

std::string ServeCore::CmdMetrics(const std::vector<std::string>& args) {
  if (args.size() > 1) {
    return Err("usage: METRICS [<filter>]");
  }
  // Metric lines always start with "hk_" or "#", so appending the protocol
  // END sentinel keeps multi-line framing unambiguous for thin clients.
  return telemetry::Registry::Get().RenderPrometheus(args.empty() ? "" : args[0]) + "END\n";
}

std::string ServeCore::CmdCheckpoint() {
  std::string err;
  if (!WriteCheckpoint(&err)) {
    return Err(err);
  }
  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    count = instances_.size();
  }
  return "OK checkpoint " + options_.checkpoint_path + " instances=" + std::to_string(count) +
         "\n";
}

std::string ServeCore::Execute(const std::string& line) {
  tm_commands_->Add();
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Err("empty command");
  }
  const std::string verb = tokens[0];
  tokens.erase(tokens.begin());
  const auto it = verb_metrics_.find(verb);
  if (it == verb_metrics_.end()) {
    return Err("unknown command '" + verb + "'");
  }
  it->second.requests->Add();
  const telemetry::ScopedTimer timer(it->second.latency_us);
  return Dispatch(verb, tokens);
}

std::string ServeCore::Dispatch(const std::string& verb, const std::vector<std::string>& args) {
  if (verb == "CREATE") {
    return CmdCreate(args);
  }
  if (verb == "DROP") {
    return CmdDrop(args);
  }
  if (verb == "ATTACH") {
    return CmdAttach(args);
  }
  if (verb == "LIST") {
    return CmdList();
  }
  if (verb == "TOPK") {
    return CmdTopK(args);
  }
  if (verb == "POINT") {
    return CmdPoint(args);
  }
  if (verb == "STATS") {
    return CmdStats(args);
  }
  if (verb == "METRICS") {
    return CmdMetrics(args);
  }
  if (verb == "CHECKPOINT") {
    return CmdCheckpoint();
  }
  // PING is the only verb left in verb_metrics_; anything else never
  // reaches Dispatch (Execute rejects unknown verbs by map lookup).
  return "OK pong\n";
}

}  // namespace hk
