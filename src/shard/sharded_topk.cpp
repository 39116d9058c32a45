#include "shard/sharded_topk.h"

#include <algorithm>
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
  size_t slots = 0;
  if (options_.threaded) {
    tm_ring_highwater_ = telemetry::Registry::Get().GetGauge(
        "hk_ring_occupancy_highwater",
        "Deepest producer-observed queue depth of any single worker ring",
        "ring=\"sharded\"");
    // ring= caps the packets in flight: at least two slots of burst=
    // packets, each smaller when the ring cannot hold two full bursts.
    slot_packets_ = std::min(options_.drain_burst, std::max<size_t>(options_.ring_capacity / 2, 1));
    slots = std::max<size_t>(options_.ring_capacity / slot_packets_, 2);
  }
  shards_.reserve(inners.size());
  for (auto& inner : inners) {
    auto shard = std::make_unique<Shard>();
    shard->algo = std::move(inner);
    if (options_.threaded) {
      // refill 1: InsertBatch returns, and a query interleaved with the
      // inserts on this thread runs, one worker slot after the ring
      // filled, not half a ring later.
      shard->ring = std::make_unique<BurstRing<Burst>>(
          slots, 1, [this](Burst& burst) { burst.ids.reserve(slot_packets_); });
      shard->published_through.assign(slots + 1, 0);
    }
    shards_.push_back(std::move(shard));
  }
  if (options_.threaded) {
    workers_.reserve(shards_.size());
    for (const auto& shard : shards_) {
      workers_.emplace_back([this, &shard = *shard] { WorkerLoop(shard); });
    }
  }
}

ShardedTopK::~ShardedTopK() {
  // Workers drain their rings before exiting, so packets accepted right
  // up to destruction are still applied (shutdown-while-draining).
  for (const auto& shard : shards_) {
    if (shard->ring != nullptr) {
      PublishOpen(*shard);
      shard->ring->Finish();
    }
  }
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ShardedTopK::Append(FlowId id, const uint64_t* weight) {
  Shard& shard = *shards_[partitioner_.ShardOf(id)];
  if (shard.open == nullptr) {
    shard.open = shard.ring->AcquireFree();  // sleeps while the ring is full
    shard.open->ids.clear();
    shard.open->weights.clear();
  }
  shard.open->ids.push_back(id);
  // A slot left open by per-packet calls can mix unit and explicit
  // weights: the first explicit one backfills the unit weights before it.
  if (weight != nullptr || !shard.open->weights.empty()) {
    shard.open->weights.resize(shard.open->ids.size() - 1, 1);
    shard.open->weights.push_back(weight != nullptr ? *weight : 1);
  }
  if (shard.open->ids.size() == slot_packets_) {
    Publish(shard);
  }
}

void ShardedTopK::Scatter(std::span<const FlowId> ids, const uint64_t* weights) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (weights == nullptr) {
      Append(ids[i], nullptr);
    } else if (weights[i] != 0) {  // contract: weight 0 is a no-op
      Append(ids[i], &weights[i]);
    }
  }
  // Nothing waits in the producer: a relaxed snapshot after this call
  // sees every packet it was given.
  for (const auto& shard : shards_) {
    PublishOpen(*shard);
  }
}

void ShardedTopK::PublishOpen(Shard& shard) const {
  if (shard.open != nullptr) {
    Publish(shard);
  }
}

void ShardedTopK::Publish(Shard& shard) const {
  std::vector<uint64_t>& through = shard.published_through;
  const uint64_t total = through[shard.publishes % through.size()] + shard.open->ids.size();
  shard.open = nullptr;
  const size_t in_flight = shard.ring->Publish();
  through[++shard.publishes % through.size()] = total;
  const uint64_t depth = total - through[(shard.publishes - in_flight) % through.size()];
  tm_ring_highwater_->MaxTo(static_cast<int64_t>(depth));
}

void ShardedTopK::WorkerLoop(Shard& shard) {
  uint32_t served = 0;
  for (;;) {
    // A pending relaxed snapshot is answered here, between bursts, so the
    // querier never waits for the ring to drain. The querier's Wake()
    // brings an idle worker here too.
    const uint32_t request = shard.request_seq.load(std::memory_order_acquire);
    if (request != served) {
      shard.report = shard.algo->TopK(shard.request_k);
      shard.report_memory_bytes = shard.algo->MemoryBytes();
      shard.report_seq.store(request, std::memory_order_release);
      shard.report_seq.notify_one();  // no syscall unless the querier sleeps
      served = request;
    }
    const Burst* burst = shard.ring->AcquireFull();
    if (burst == nullptr) {
      if (shard.ring->Done()) {
        return;
      }
      continue;  // woken for a relaxed snapshot
    }
    // A unit-weight slot takes the software-pipelined unweighted entry.
    if (burst->weights.empty()) {
      shard.algo->InsertBatch(burst->ids);
    } else {
      shard.algo->InsertBatch(burst->ids, burst->weights);
    }
    shard.ring->Release();
  }
}

void ShardedTopK::WaitIdle() const {
  // The producer's open slots hold packets accepted by Insert() and
  // InsertWeighted(); a query must see them, so they go out first.
  for (const auto& shard : shards_) {
    if (shard->ring != nullptr) {
      PublishOpen(*shard);
    }
  }
  for (const auto& shard : shards_) {
    if (shard->ring != nullptr) {
      shard->ring->WaitDrained();
    }
  }
}

void ShardedTopK::Flush() { WaitIdle(); }

void ShardedTopK::Insert(FlowId id) {
  if (options_.threaded) {
    Append(id, nullptr);  // the slot stays open for the next packet
    return;
  }
  shards_[partitioner_.ShardOf(id)]->algo->Insert(id);
}

void ShardedTopK::InsertWeighted(FlowId id, uint64_t weight) {
  if (options_.threaded) {
    if (weight != 0) {
      Append(id, &weight);
    }
    return;
  }
  if (weight != 0) {
    shards_[partitioner_.ShardOf(id)]->algo->InsertWeighted(id, weight);
  }
}

void ShardedTopK::InsertBatch(std::span<const FlowId> ids) {
  if (options_.threaded) {
    Scatter(ids, nullptr);
    return;
  }
  // Scatter into per-shard runs, preserving arrival order inside each
  // shard, and apply each run through the inner batch fast path (final
  // state matches per-packet routing exactly - the batch == scalar
  // contract - but hashing and prefetching amortize per shard).
  for (const auto& shard : shards_) {
    shard->run_ids.clear();
  }
  for (const FlowId id : ids) {
    shards_[partitioner_.ShardOf(id)]->run_ids.push_back(id);
  }
  for (const auto& shard : shards_) {
    if (!shard->run_ids.empty()) {
      shard->algo->InsertBatch(shard->run_ids);
    }
  }
}

void ShardedTopK::InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) {
  if (options_.threaded) {
    Scatter(ids, weights.data());
    return;
  }
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
    if (!shard->run_ids.empty()) {
      shard->algo->InsertBatch(shard->run_ids, shard->run_weights);
    }
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
    shard->ring->Wake();  // a worker asleep on an empty ring answers now
  }
  size_t memory_bytes = 0;
  for (const auto& shard : shards_) {
    // Sleep on the slot until the worker answers: at most the burst it is
    // applying.
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
