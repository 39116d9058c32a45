// End-to-end measurement pipeline over the simulated OVS deployment
// (Section VII-B): per pipeline, a datapath (producer) thread parses and
// forwards packets a burst at a time, writing the flow IDs straight into a
// slot of the shared-memory ring (common/burst_ring.h); a user-space
// (consumer) thread applies each slot to a measurement algorithm with one
// InsertBatch. Finish() ends the stream, so every flow id, 0 included, is
// an ordinary value. Several pipelines run in parallel (the paper uses 4
// threads); throughput is applied packets over wall time. When the
// consumer is slower than the datapath the ring fills and the datapath
// sleeps until half of it has drained - the back-pressure Figure 34
// quantifies per algorithm.
//
// Scale-out (1 -> N consumers): hand the factory a threaded
// ShardedTopK ("Sharded:n=8,threads=1,inner=..."; shard/sharded_topk.h).
// The pipeline's consumer thread then becomes a scatter stage - its
// InsertBatch() fans each slot out to the per-shard rings, where N worker
// threads run the sketches. The consumer
// Flush()es at end-of-stream inside the timed region, so reported
// throughput covers every applied packet. The hardware clamp asks the
// algorithm for its worker-thread count (TopKAlgorithm::WorkerThreads),
// so sharded consumers budget their cores automatically.
#ifndef HK_OVS_PIPELINE_H_
#define HK_OVS_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ovs/datapath.h"
#include "sketch/topk_algorithm.h"

namespace hk {

struct PipelineConfig {
  // Requested pipelines (paper: 4). Clamped at run time so that
  // num_pipelines * (producer + consumer + the algorithm's own worker
  // threads) stays within the hardware: oversubscribed busy threads
  // measure the scheduler, not the sketch.
  size_t num_pipelines = 4;
  // Flow ids in flight in shared memory, in 256-id bursts (two at least).
  size_t ring_capacity = 4096;
  size_t cache_slots = 1 << 16;  // datapath exact-match cache
  // >0: after the timed run, take a Snapshot(k) from every measuring
  // pipeline and return them in PipelineResult::reports. The consumers
  // already Flush()ed inside the timed region, so these are kExact reads
  // collected off the clock.
  size_t snapshot_k = 0;
};

struct PipelineResult {
  double seconds = 0.0;
  double mps = 0.0;  // aggregate packets per second (millions)
  uint64_t packets = 0;  // sum of `applied`
  size_t pipelines = 0;  // actually used after the hardware clamp
  std::vector<uint64_t> applied;     // packets each pipeline's consumer applied
  std::vector<QueryResult> reports;  // one per pipeline when snapshot_k > 0
};

// Factory returning the per-pipeline measurement algorithm (non-owning; the
// caller keeps the algorithms alive for the duration of the run and may
// inspect them afterwards), or nullptr for the "plain OVS" baseline
// (consumer drains the ring without measuring).
using AlgorithmFactory = std::function<TopKAlgorithm*(size_t pipeline_index)>;

// Runs `packets` (pre-packed wire headers, reused by every pipeline) through
// the configured number of producer/consumer pairs.
PipelineResult RunPipelines(const std::vector<RawPacket>& packets, const AlgorithmFactory& make,
                            const PipelineConfig& config);

// Convenience: pack a synthetic 5-tuple workload for the pipelines.
std::vector<RawPacket> MakeWirePackets(uint64_t num_packets, uint64_t num_ranks, double skew,
                                       uint64_t seed);

}  // namespace hk

#endif  // HK_OVS_PIPELINE_H_
