#include "shard/sharded_topk.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/byte_io.h"
#include "shard/merge.h"

namespace hk {
namespace {

// Single source of the spec defaults: the factory's GetUint fallbacks and
// name()'s emit-only-non-default comparisons both read from here, so
// changing a default in ShardedTopKOptions cannot desynchronize them.
const ShardedTopKOptions kDefaultOptions{};

// Producer and worker wait strategy: stay on the CPU briefly (a draining
// worker usually frees a slot within a few yields), then sleep so an idle
// or back-pressured thread does not starve whoever holds the work.
inline void Backoff(size_t& spins) {
  if (++spins < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

}  // namespace

ShardedTopK::ShardedTopK(const ShardedTopKOptions& options, const SketchDefaults& defaults)
    : options_(options), partitioner_(options.num_shards) {
  if (options_.num_shards < 1 || options_.num_shards > kMaxShards) {
    throw std::invalid_argument("ShardedTopK: n= must be 1.." + std::to_string(kMaxShards));
  }
  const std::string inner_head =
      ResolveSketchName(options_.inner_spec.substr(0, options_.inner_spec.find(':')));
  if (inner_head == "Sharded") {
    throw std::invalid_argument("ShardedTopK: inner= must not itself be Sharded");
  }
  // The concurrent front-end shares one slab across threads; hiding it
  // behind a partitioner would stack two threading models on one stream.
  // Pick one: Sharded:n=N for partitioned slabs, Concurrent:threads=N for
  // a shared one.
  if (inner_head == "Concurrent") {
    throw std::invalid_argument(
        "ShardedTopK: inner= must not be Concurrent (compose one front-end per "
        "stream; use Sharded:n=N or Concurrent:threads=N, not both)");
  }
  // Epoch rotation must be stream-global: per-shard rings would rotate on
  // per-shard packet counts, desynchronizing the windows. Window outside,
  // shard inside: "Window:...,inner=Sharded:n=N,inner=...".
  if (inner_head == "Window") {
    throw std::invalid_argument(
        "ShardedTopK: inner= must not be Window (wrap the ring around the "
        "sharded instance instead: Window:...,inner=Sharded:n=N,...)");
  }

  // Every shard gets an equal slice of the byte budget and the *same* seed:
  // shards hold disjoint keys, so identical hash functions cannot interact,
  // and a 1-shard instance stays bit-identical to the unsharded inner.
  SketchDefaults shard_defaults = defaults;
  shard_defaults.memory_bytes = defaults.memory_bytes / options_.num_shards;

  std::vector<std::unique_ptr<TopKAlgorithm>> inners;
  inners.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    inners.push_back(MakeSketch(options_.inner_spec, shard_defaults));
  }
  InitShards(std::move(inners));
}

ShardedTopK::ShardedTopK(const ShardedTopKOptions& options,
                         std::vector<std::unique_ptr<TopKAlgorithm>> inners)
    : options_(options), partitioner_(inners.size()) {
  if (inners.empty() || inners.size() > kMaxShards) {
    throw std::invalid_argument("ShardedTopK: need 1.." + std::to_string(kMaxShards) +
                                " inner algorithms");
  }
  options_.num_shards = inners.size();
  InitShards(std::move(inners));
}

void ShardedTopK::InitShards(std::vector<std::unique_ptr<TopKAlgorithm>> inners) {
  // Threaded-options invariants live here so both constructors share them.
  if (options_.threaded && (options_.ring_capacity < 1 || options_.drain_burst < 1)) {
    throw std::invalid_argument("ShardedTopK: ring= and burst= must be >= 1");
  }
  if (options_.threaded) {
    tm_ring_highwater_ = telemetry::Registry::Get().GetGauge(
        "hk_ring_occupancy_highwater",
        "Deepest producer-observed queue depth of any single worker ring",
        "ring=\"sharded\"");
  }
  shards_.reserve(inners.size());
  for (auto& inner : inners) {
    auto shard = std::make_unique<Shard>();
    shard->algo = std::move(inner);
    if (options_.threaded) {
      shard->ring = std::make_unique<SpscRing<Packet>>(options_.ring_capacity);
    }
    shards_.push_back(std::move(shard));
  }
  if (options_.threaded) {
    workers_.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
}

ShardedTopK::~ShardedTopK() {
  if (options_.threaded) {
    // Workers drain their rings before exiting, so packets enqueued right
    // up to destruction are still applied (shutdown-while-draining).
    stop_.store(true, std::memory_order_release);
    for (auto& worker : workers_) {
      worker.join();
    }
  }
}

void ShardedTopK::Enqueue(FlowId id, uint64_t weight) {
  PushRun(*shards_[partitioner_.ShardOf(id)], std::span<const FlowId>(&id, 1), &weight);
}

void ShardedTopK::PushRun(Shard& shard, std::span<const FlowId> ids, const uint64_t* weights) {
  // Count before pushing: the producer is the only thread that observes
  // its own not-yet-pushed packets, so Flush() from the producer thread
  // can never miss one.
  const uint64_t depth =
      shard.queued.fetch_add(ids.size(), std::memory_order_relaxed) + ids.size();
  tm_ring_highwater_->MaxTo(static_cast<int64_t>(depth));
  for (size_t i = 0; i < ids.size(); ++i) {
    const Packet packet{ids[i], weights != nullptr ? weights[i] : 1};
    size_t spins = 0;  // per packet: a successful push resets the backoff
    while (!shard.ring->TryPush(packet)) {
      Backoff(spins);  // ring full: the shard back-pressures the producer
    }
  }
}

void ShardedTopK::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<FlowId> ids(options_.drain_burst);
  std::vector<uint64_t> weights(options_.drain_burst);
  size_t spins = 0;
  uint32_t served = 0;
  for (;;) {
    // A pending relaxed snapshot is answered here, between bursts, so the
    // querier never waits for the ring to drain.
    const uint32_t request = shard.request_seq.load(std::memory_order_acquire);
    if (request != served) {
      shard.report = shard.algo->TopK(shard.request_k);
      shard.report_memory_bytes = shard.algo->MemoryBytes();
      shard.report_seq.store(request, std::memory_order_release);
      shard.report_seq.notify_one();  // no syscall unless the querier sleeps
      served = request;
    }
    size_t n = 0;
    bool unit_weights = true;
    Packet packet;
    while (n < options_.drain_burst && shard.ring->TryPop(&packet)) {
      ids[n] = packet.id;
      weights[n] = packet.weight;
      unit_weights &= packet.weight == 1;
      ++n;
    }
    if (n > 0) {
      // Drain through the inner batch fast path; a run of unit weights
      // takes the software-pipelined unweighted entry point.
      if (unit_weights) {
        shard.algo->InsertBatch(std::span<const FlowId>(ids.data(), n));
      } else {
        shard.algo->InsertBatch(std::span<const FlowId>(ids.data(), n),
                                std::span<const uint64_t>(weights.data(), n));
      }
      shard.queued.fetch_sub(n, std::memory_order_release);
      spins = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire) && shard.ring->Empty()) {
      break;
    }
    Backoff(spins);
  }
}

void ShardedTopK::WaitIdle() const {
  if (!options_.threaded) {
    return;
  }
  for (const auto& shard : shards_) {
    size_t spins = 0;
    while (shard->queued.load(std::memory_order_acquire) != 0) {
      Backoff(spins);
    }
  }
}

void ShardedTopK::Flush() { WaitIdle(); }

void ShardedTopK::Insert(FlowId id) {
  if (options_.threaded) {
    Enqueue(id, 1);
    return;
  }
  shards_[partitioner_.ShardOf(id)]->algo->Insert(id);
}

void ShardedTopK::InsertWeighted(FlowId id, uint64_t weight) {
  if (weight == 0) {
    return;
  }
  if (options_.threaded) {
    Enqueue(id, weight);
    return;
  }
  shards_[partitioner_.ShardOf(id)]->algo->InsertWeighted(id, weight);
}

void ShardedTopK::InsertBatch(std::span<const FlowId> ids) {
  // Scatter into per-shard runs, preserving arrival order inside each
  // shard. Synchronous mode applies each run through the inner batch fast
  // path (final state matches per-packet routing exactly - the batch ==
  // scalar contract - but hashing and prefetching amortize per shard);
  // threaded mode publishes each run with a single queued-counter bump
  // instead of one contended RMW per packet.
  for (const auto& shard : shards_) {
    shard->run_ids.clear();
  }
  for (const FlowId id : ids) {
    shards_[partitioner_.ShardOf(id)]->run_ids.push_back(id);
  }
  for (const auto& shard : shards_) {
    if (shard->run_ids.empty()) {
      continue;
    }
    if (!options_.threaded) {
      shard->algo->InsertBatch(shard->run_ids);
      continue;
    }
    // Runs are delivered shard by shard, so a full ring briefly blocks
    // delivery to later shards. Accepted trade-off: in steady state the
    // aggregate rate is gated by the hottest shard's worker regardless,
    // and per-shard FIFO delivery keeps the determinism argument simple.
    PushRun(*shard, shard->run_ids, /*weights=*/nullptr);
  }
}

void ShardedTopK::InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) {
  for (const auto& shard : shards_) {
    shard->run_ids.clear();
    shard->run_weights.clear();
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (weights[i] == 0) {
      continue;  // contract: weight 0 is a no-op
    }
    Shard& shard = *shards_[partitioner_.ShardOf(ids[i])];
    shard.run_ids.push_back(ids[i]);
    shard.run_weights.push_back(weights[i]);
  }
  for (const auto& shard : shards_) {
    if (shard->run_ids.empty()) {
      continue;
    }
    if (!options_.threaded) {
      shard->algo->InsertBatch(shard->run_ids, shard->run_weights);
      continue;
    }
    PushRun(*shard, shard->run_ids, shard->run_weights.data());
  }
}

QueryResult ShardedTopK::Snapshot(const QueryOptions& options) {
  const bool relaxed = options_.threaded && options.consistency == ConsistencyLevel::kRelaxed;
  std::vector<std::vector<FlowCount>> per_shard;
  per_shard.reserve(shards_.size());
  size_t memory_bytes = 0;
  if (relaxed) {
    memory_bytes = CollectRelaxedReports(options.k, &per_shard);
  } else {
    Flush();
    for (const auto& shard : shards_) {
      per_shard.push_back(shard->algo->TopK(options.k));
    }
    memory_bytes = MemoryBytes();
  }
  // Sum of the shards' reports, not the merged size: the union truncates
  // to k but each shard tracks its own candidates.
  size_t tracked = 0;
  for (const auto& report : per_shard) {
    tracked += report.size();
  }
  QueryResult result;
  result.flows = MergeTopK(per_shard, options.k);
  result.consistency = relaxed ? ConsistencyLevel::kRelaxed : ConsistencyLevel::kExact;
  result.stats.tracked_flows = tracked;
  result.stats.min_tracked = result.flows.empty() ? 0 : result.flows.back().count;
  result.stats.worker_threads = WorkerThreads();
  result.stats.memory_bytes = memory_bytes;
  result.stats.simd_kernel = ActiveSimdKernel();  // resolved at construction: no drain
  return result;
}

size_t ShardedTopK::CollectRelaxedReports(size_t k,
                                          std::vector<std::vector<FlowCount>>* per_shard) {
  // No WaitIdle, MemoryBytes(), name() or TopK() on this path: each of
  // those drains the rings. Every figure comes from the workers' reports.
  std::lock_guard<std::mutex> lock(relaxed_mu_);
  const uint32_t seq = ++relaxed_seq_;
  for (const auto& shard : shards_) {
    shard->request_k = k;
    shard->request_seq.store(seq, std::memory_order_release);
  }
  size_t memory_bytes = 0;
  for (const auto& shard : shards_) {
    // Sleep on the slot until the worker answers: one burst, or one idle
    // backoff sleep, per shard.
    for (uint32_t seen; (seen = shard->report_seq.load(std::memory_order_acquire)) != seq;) {
      shard->report_seq.wait(seen, std::memory_order_acquire);
    }
    memory_bytes += shard->report_memory_bytes;
    per_shard->push_back(std::move(shard->report));
  }
  return memory_bytes;
}

const char* ShardedTopK::ActiveSimdKernel() const {
  return shards_[0]->algo->ActiveSimdKernel();
}

std::vector<FlowCount> ShardedTopK::TopK(size_t k) const {
  WaitIdle();
  std::vector<std::vector<FlowCount>> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->algo->TopK(k));
  }
  return MergeTopK(per_shard, k);
}

uint64_t ShardedTopK::EstimateSize(FlowId id) const {
  WaitIdle();
  return shards_[partitioner_.ShardOf(id)]->algo->EstimateSize(id);
}

std::string ShardedTopK::name() const {
  WaitIdle();  // the query contract: behave as if Flush() ran first
  std::string spec = "Sharded:n=" + std::to_string(shards_.size());
  if (options_.threaded) {
    spec += ",threads=1";
    if (options_.ring_capacity != kDefaultOptions.ring_capacity) {
      spec += ",ring=" + std::to_string(options_.ring_capacity);
    }
    if (options_.drain_burst != kDefaultOptions.drain_burst) {
      spec += ",burst=" + std::to_string(options_.drain_burst);
    }
  }
  // The greedy key comes last (registry grammar): the inner name is itself
  // a full spec and may contain ':' and ','.
  spec += ",inner=" + shards_[0]->algo->name();
  return spec;
}

size_t ShardedTopK::MemoryBytes() const {
  // Not just the contract: a draining worker can grow its inner sketch
  // (HeavyKeeper Section III-F expansion), so reading sizes unsynchronized
  // would race.
  WaitIdle();
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->algo->MemoryBytes();
  }
  return total;
}

bool ShardedTopK::SaveState(std::vector<uint8_t>* out) const {
  WaitIdle();
  // The inners' tables dominate their blobs, so one reservation up front -
  // with slack for blob headers and store records serialized wider than
  // they are charged - lets every shard append in place without regrowing
  // the buffer.
  const size_t accounted = MemoryBytes();
  ByteReserve(*out, accounted + accounted / 8 + shards_.size() * 1024);
  const size_t start = out->size();
  ByteAppend(*out, static_cast<uint64_t>(shards_.size()));
  for (const auto& shard : shards_) {
    const TopKAlgorithm& inner = *shard->algo;
    const bool saved = ByteAppendSized(*out, [&inner](std::vector<uint8_t>& blob) {
      return inner.SaveState(&blob);
    });
    if (!saved) {
      out->resize(start);  // a shard that cannot checkpoint leaves `out` untouched
      return false;
    }
  }
  return true;
}

bool ShardedTopK::LoadState(const uint8_t* data, size_t size) {
  WaitIdle();
  ByteReader reader(data, size);
  uint64_t n = 0;
  if (!reader.Read(&n) || n != shards_.size()) {
    return false;
  }
  // Per-shard delegation is not atomic across shards: frame the blobs
  // first so a short buffer cannot leave half the shards restored.
  std::vector<std::span<const uint8_t>> blobs(shards_.size());
  for (auto& blob : blobs) {
    if (!reader.BorrowBlob(&blob)) {
      return false;
    }
  }
  if (!reader.Done()) {
    return false;
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]->algo->LoadState(blobs[i].data(), blobs[i].size())) {
      return false;
    }
  }
  return true;
}

HK_REGISTER_SKETCHES(ShardedTopK) {
  RegisterSketch({"Sharded",
                  {},
                  {"n", "threads", "ring", "burst", "inner"},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    ShardedTopKOptions options;
                    options.num_shards =
                        static_cast<size_t>(args.GetUint("n", kDefaultOptions.num_shards));
                    const uint64_t threads = args.GetUint("threads", 0);
                    if (threads > 1) {
                      throw std::invalid_argument(
                          "sketch spec: threads= must be 0 or 1 (one worker per shard; "
                          "raise n= for more workers)");
                    }
                    options.threaded = threads != 0;
                    if (!options.threaded && (args.params().count("ring") != 0 ||
                                              args.params().count("burst") != 0)) {
                      throw std::invalid_argument(
                          "sketch spec: ring=/burst= tune the worker rings and require "
                          "threads=1");
                    }
                    options.ring_capacity = static_cast<size_t>(
                        args.GetUint("ring", kDefaultOptions.ring_capacity));
                    options.drain_burst = static_cast<size_t>(
                        args.GetUint("burst", kDefaultOptions.drain_burst));
                    if (const auto it = args.params().find("inner"); it != args.params().end()) {
                      options.inner_spec = it->second;
                    }
                    SketchDefaults defaults;
                    defaults.memory_bytes = args.memory_bytes();
                    defaults.k = args.k();
                    defaults.key_kind = args.key_kind();
                    defaults.seed = args.seed();
                    return std::make_unique<ShardedTopK>(options, defaults);
                  },
                  /*greedy_key=*/"inner"});
}

}  // namespace hk
