// ShardedTopK: a key-partitioned, multi-core top-k pipeline.
//
// The paper's OVS deployment (Section VII) runs HeavyKeeper on a single
// user-space thread; this layer is the scale-out path. N independent inner
// algorithms (any sketch registry spec; HeavyKeeper pipelines by default)
// each own a disjoint slice of the key space chosen by a salted hash of
// the flow id (shard/partition.h), so a flow's state never splits and the
// per-shard stream is just the arrival stream filtered to that shard.
//
// Two execution modes share the same shards:
//
//   * Synchronous (threads=0, the default): inserts route directly to the
//     owning shard; batches are scattered into per-shard runs and applied
//     through the inner InsertBatch fast path. No threads, no queues -
//     bit-for-bit reproducible and safe anywhere a plain sketch is.
//   * Threaded (threads=1): each shard gets a burst ring
//     (common/burst_ring.h) and a worker thread that applies it a slot at
//     a time through InsertBatch. The caller's thread is the single
//     producer: InsertBatch scatters each packet straight into its shard's
//     open slot, publishes a slot once it holds burst= packets (fewer when
//     ring= cannot hold two such slots), and publishes every partial slot
//     before it returns. Insert()/InsertWeighted() leave their slot open
//     for the next packet, so per-packet callers still hand the worker
//     whole slots; a query, Flush() or destruction publishes it. Workers
//     are the single consumers. A full ring puts the producer to sleep
//     until its worker frees a slot (so one InsertBatch blocks for a few
//     slots at most, and a query the producer interleaves waits no
//     longer); an empty one puts its worker to sleep.
//
// Determinism: the partition depends only on the flow id, each ring is
// FIFO, and the inner batch path is contractually identical to the scalar
// path (sketch/topk_algorithm.h), so for a fixed seed and shard count the
// final state is identical across runs, across burst sizes, and across the
// two execution modes - regardless of how the OS schedules the workers.
// Every shard is built with the *same* seed; with one shard the instance
// is therefore bit-identical to the unsharded inner algorithm.
//
// Query semantics: TopK() waits for all queued packets to drain, then
// unions the per-shard reports (shard/merge.h - a flow's estimate is its
// owning shard's estimate, unchanged). EstimateSize() asks the owning
// shard. Flush() blocks until every accepted packet has been applied;
// destruction drains outstanding packets before joining the workers, so a
// shutdown mid-burst loses nothing.
//
// Relaxed snapshots (threaded mode): Snapshot(kRelaxed) does not drain.
// The querier posts a request to every shard; each worker answers at its
// next burst boundary with its inner's TopK(k) and MemoryBytes(), and the
// querier merges those reports. The querier also wakes each ring, so a
// worker asleep on an empty ring answers at once; a busy one answers after
// the burst it is applying, however deep the rings are. Each shard's
// report reflects a prefix of that shard's stream; different shards may
// reflect different prefixes. Packets still in an open slot (the last
// Insert()/InsertWeighted() calls, fewer than burst= per shard) are not in
// that prefix until the producer next flushes, queries or calls
// InsertBatch. When nobody asks, the workers pay one acquire load per
// burst.
//
// Thread model (threaded mode): the insert API and Flush()/TopK()/
// EstimateSize()/Snapshot(kExact) must be called from one thread at a time
// (the producer); the N workers are internal. Cross-thread visibility is
// established through each ring's mutex: a worker releases a slot under it
// after applying the slot, and WaitIdle() waits under it until every
// published slot is released, so post-Flush() queries read fully
// published sketch state. Snapshot(kRelaxed) may be called from any thread
// while the producer keeps inserting or querying; relaxed callers are
// serialized among themselves. It must not overlap LoadState() or
// destruction. The worker's TopK()/MemoryBytes() on its inner may run
// alongside the producer's own const queries, so those must not write.
#ifndef HK_SHARD_SHARDED_TOPK_H_
#define HK_SHARD_SHARDED_TOPK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/burst_ring.h"
#include "shard/partition.h"
#include "sketch/registry.h"
#include "sketch/topk_algorithm.h"
#include "telemetry/telemetry.h"

namespace hk {

struct ShardedTopKOptions {
  size_t num_shards = 8;
  // Registry spec for each shard's algorithm; the shard is built with the
  // total budget's 1/num_shards slice and the caller's k/key/seed context.
  std::string inner_spec = "HK-Minimum";
  bool threaded = false;      // spin up one worker + ring per shard
  // Threaded mode: ring_capacity caps the packets in flight per shard. A
  // ring slot (one worker InsertBatch) holds min(drain_burst,
  // ring_capacity / 2) packets; a ring has ring_capacity / that slots, two
  // at least.
  size_t ring_capacity = 4096;
  size_t drain_burst = 256;
};

class ShardedTopK : public TopKAlgorithm {
 public:
  // Sanity cap on the shard count: far above any sensible core count, low
  // enough that a garbage n= in a spec fails loudly instead of allocating
  // (and possibly spawning) millions of shards.
  static constexpr size_t kMaxShards = 1024;

  // Throws std::invalid_argument on zero shards, a degenerate ring/burst,
  // or an inner spec that is itself sharded (nested partitioning is a
  // configuration error, not a feature).
  ShardedTopK(const ShardedTopKOptions& options, const SketchDefaults& defaults);

  // Embedding constructor: shard over pre-built algorithms instead of a
  // registry spec (custom TopKAlgorithm implementations, instrumented
  // test doubles). `inners.size()` is the shard count; options.num_shards
  // and options.inner_spec are ignored, the threading options apply as
  // usual. Caveats that the spec path handles for you: memory budgeting
  // is the caller's problem (the inners were already built), and name()
  // embeds shard 0's name - it is only a valid registry spec when the
  // inners are homogeneous registry-built instances.
  ShardedTopK(const ShardedTopKOptions& options,
              std::vector<std::unique_ptr<TopKAlgorithm>> inners);

  ~ShardedTopK() override;

  ShardedTopK(const ShardedTopK&) = delete;
  ShardedTopK& operator=(const ShardedTopK&) = delete;

  void Insert(FlowId id) override;
  void InsertWeighted(FlowId id, uint64_t weight) override;
  void InsertBatch(std::span<const FlowId> ids) override;
  void InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) override;

  // Block until every accepted packet is applied to its shard (no-op in
  // synchronous mode).
  void Flush() override;

  // kExact (and every request in synchronous mode) drains the rings, then
  // reads the shards. kRelaxed in threaded mode never drains: the workers
  // answer at their next burst boundary (see the header comment), and the
  // stats come from the figures they publish. stats.min_tracked is the
  // merged report's smallest estimate (the global admission threshold is
  // per-shard, so no single nmin exists).
  QueryResult Snapshot(const QueryOptions& options = {}) override;

  std::vector<FlowCount> TopK(size_t k) const override;
  uint64_t EstimateSize(FlowId id) const override;
  std::string name() const override;
  size_t MemoryBytes() const override;
  size_t WorkerThreads() const override { return options_.threaded ? shards_.size() : 0; }

  // Every shard is built from the same spec, so shard 0 speaks for all.
  const char* ActiveSimdKernel() const override;

  // Quiesces the rings, then delegates to each shard in index order. Both
  // fail (returning false, state untouched) unless every inner supports
  // checkpointing and the shard count matches.
  bool SaveState(std::vector<uint8_t>* out) const override;
  bool LoadState(const uint8_t* data, size_t size) override;

  size_t num_shards() const { return shards_.size(); }
  bool threaded() const { return options_.threaded; }
  size_t ShardOf(FlowId id) const { return partitioner_.ShardOf(id); }

  // The shard algorithms, for tests and for pipelines that feed shards
  // from their own threads (one external thread per shard is safe: shards
  // share no state).
  TopKAlgorithm& shard(size_t i) { return *shards_[i]->algo; }
  const TopKAlgorithm& shard(size_t i) const { return *shards_[i]->algo; }

 private:
  // One ring slot: a run of one shard's packets in arrival order.
  struct Burst {
    std::vector<FlowId> ids;
    std::vector<uint64_t> weights;  // empty: unit weights
  };

  struct Shard {
    std::unique_ptr<TopKAlgorithm> algo;
    std::unique_ptr<BurstRing<Burst>> ring;  // threaded mode only
    // Synchronous mode's scatter buffers (reused across batches).
    std::vector<FlowId> run_ids;
    std::vector<uint64_t> run_weights;
    // Threaded mode, producer only: the slot being filled (nullptr when
    // none is open), and the packets published in all after each of the
    // last ring's slots + 1 publishes, which turns Publish()'s slots in
    // flight into packets in flight for the high-water gauge.
    Burst* open = nullptr;
    uint64_t publishes = 0;
    std::vector<uint64_t> published_through;

    // Relaxed-snapshot handshake (threaded mode). The querier writes
    // request_k, release-stores request_seq and wakes the ring; the worker
    // reads request_k, fills the report fields, then release-stores
    // report_seq = request_seq, after which the querier reads them.
    // relaxed_mu_ keeps one request in flight, so the plain fields never
    // race. alignas: the worker polls request_seq once per burst, so it
    // stays off the producer's lines.
    alignas(64) std::atomic<uint32_t> request_seq{0};
    size_t request_k = 0;
    std::vector<FlowCount> report;
    size_t report_memory_bytes = 0;
    std::atomic<uint32_t> report_seq{0};  // 32-bit: waited on as a futex
  };

  // The threaded insert path. Append routes one packet into its shard's
  // open slot (nullptr weight = unit weight) and publishes the slot once
  // full. Scatter appends a batch (weight 0 skipped, nullptr weights =
  // unit weights), then publishes every partial slot. Publishing is
  // producer-only; it is const so that the const queries, which the
  // producer calls, can publish the open slots before they drain.
  void Append(FlowId id, const uint64_t* weight);
  void Scatter(std::span<const FlowId> ids, const uint64_t* weights);
  void PublishOpen(Shard& shard) const;
  void Publish(Shard& shard) const;
  void WorkerLoop(Shard& shard);
  void WaitIdle() const;
  // Threaded kRelaxed: post (k, seq) to every shard, wait for each
  // worker's report, append the reports to `per_shard` in shard order and
  // return the summed MemoryBytes() the workers published.
  size_t CollectRelaxedReports(size_t k, std::vector<std::vector<FlowCount>>* per_shard);
  // Shared constructor tail: wrap `inners` into shards, then spin up the
  // rings and workers when threaded.
  void InitShards(std::vector<std::unique_ptr<TopKAlgorithm>> inners);

  ShardedTopKOptions options_;
  ShardPartitioner partitioner_;
  size_t slot_packets_ = 0;  // threaded mode: packets per ring slot
  // High-water mark of any single shard ring's packets in flight (threaded
  // mode; stays 0 in synchronous mode where nothing queues).
  telemetry::Gauge* tm_ring_highwater_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  // Serializes relaxed queriers; guards relaxed_seq_.
  std::mutex relaxed_mu_;
  uint32_t relaxed_seq_ = 0;  // wraps harmlessly: the slots compare for equality
};

}  // namespace hk

#endif  // HK_SHARD_SHARDED_TOPK_H_
