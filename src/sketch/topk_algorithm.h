// Uniform interface over every top-k algorithm in the library (v2).
//
// The experiment harness (bench/common) feeds packets through the insert
// family and asks for TopK()/EstimateSize() at the end, exactly as the
// paper's head-to-head comparison does. MemoryBytes() reports the bytes the
// algorithm was charged for under the Section VI-A accounting rules so a
// test can verify every contender respects its budget.
//
// v2 extends the one-unit-packet-at-a-time interface of the paper's
// evaluation with weights and batches, the two levers every software
// deployment pulls on the per-packet hot path:
//
//   * InsertWeighted(id, w) - process one packet carrying weight w (byte
//     counts, sampled-out packet trains, ...).
//   * InsertBatch(ids)      - process a burst of packets in arrival order,
//     letting the implementation amortize hashing and prefetch its buckets
//     across the burst.
//
// Contract (every override must preserve it; the equivalence tests in
// tests/sketch_batch_equivalence_test.cpp enforce it per algorithm):
//
//   1. InsertWeighted(id, w) is equivalent to w consecutive Insert(id)
//      calls. Deterministic transitions (empty/matching buckets, counter
//      bumps, table admissions) may be collapsed into O(1) arithmetic, but
//      any randomized transition must spend its randomness per unit: a
//      decay-style eviction flips one coin per unit at the *current*
//      counter value, exactly as HeavyKeeper::InsertBasicWeighted does
//      (the semantics this contract is promoted from). With a shared seed,
//      the final TopK()/EstimateSize() state must be identical to the
//      repeated-unit run whenever no randomized transition is reached, and
//      identically distributed otherwise.
//   2. InsertBatch(ids[, weights]) is equivalent to calling
//      Insert/InsertWeighted element by element in order. Batching may
//      reorder *work* (hash all ids up front, prefetch buckets) but never
//      observable *effects*: with a shared seed the final state is
//      identical to the scalar run.
//
// The default implementations below realize both contracts trivially, so
// every algorithm keeps working unmodified; override them only to go
// faster.
#ifndef HK_SKETCH_TOPK_ALGORITHM_H_
#define HK_SKETCH_TOPK_ALGORITHM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/flow_key.h"

namespace hk {

// Consistency a Snapshot() delivers (see TopKAlgorithm::Snapshot).
//
//   kExact   - the report reflects every packet accepted before the call,
//              as if the stream were quiesced: Flush() semantics, then a
//              stable read. Synchronous algorithms always deliver this.
//   kRelaxed - the report was taken while inserts may still be in flight.
//              Two front-ends deliver it:
//                * concurrent/ shared-slab mode reads the live slab: every
//                  value read is a whole word (per-word-atomic loads - no
//                  torn counters) and every reported estimate is a
//                  monotone lower bound of some state the flow's counter
//                  passed through;
//                * threaded shard/ mode asks each worker for its shard's
//                  report at the worker's next burst boundary: each
//                  shard's part is an exact read of a prefix of that
//                  shard's stream, and queued packets are not waited for.
//              Both: no flow appears twice, and there is no cross-flow
//              ordering - two flows' counts may reflect different prefixes
//              of the stream.
enum class ConsistencyLevel { kExact, kRelaxed };

// What to ask of Snapshot().
struct QueryOptions {
  size_t k = 100;
  // The *requested* consistency. Asking for kExact quiesces the stream
  // first (Flush); asking for kRelaxed lets a concurrent implementation
  // answer without waiting for its workers. An implementation may deliver
  // a stronger level than requested (QueryResult::consistency says which).
  ConsistencyLevel consistency = ConsistencyLevel::kExact;
};

// Point-in-time view of an algorithm's top-k state.
struct SnapshotStats {
  size_t tracked_flows = 0;   // candidate-store entries backing the report
  uint64_t min_tracked = 0;   // smallest tracked estimate (the paper's nmin)
  size_t worker_threads = 0;  // WorkerThreads() at snapshot time
  size_t memory_bytes = 0;    // MemoryBytes() of the instance
  // Resolved hot-path kernel ("scalar"/"avx2"/"neon"; "" when the
  // algorithm has no SIMD dispatch). Static-literal lifetime.
  const char* simd_kernel = "";
};

struct QueryResult {
  std::vector<FlowCount> flows;  // (estimate desc, id asc), <= k entries
  // Consistency actually delivered (>= the requested level).
  ConsistencyLevel consistency = ConsistencyLevel::kExact;
  SnapshotStats stats;
};

class TopKAlgorithm {
 public:
  virtual ~TopKAlgorithm() = default;

  // Process one packet of flow `id`.
  virtual void Insert(FlowId id) = 0;

  // Process one packet of flow `id` carrying `weight` units (contract rule
  // 1 above; weight 0 is a no-op).
  virtual void InsertWeighted(FlowId id, uint64_t weight) {
    for (uint64_t u = 0; u < weight; ++u) {
      Insert(id);
    }
  }

  // Process a burst of unit-weight packets in order (contract rule 2).
  virtual void InsertBatch(std::span<const FlowId> ids) {
    for (const FlowId id : ids) {
      Insert(id);
    }
  }

  // Weighted burst: ids[i] carries weights[i] units. `weights` must be at
  // least as long as `ids`.
  virtual void InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) {
    for (size_t i = 0; i < ids.size(); ++i) {
      InsertWeighted(ids[i], weights[i]);
    }
  }

  // Quiesce + publish: make every packet accepted before this call
  // observable to subsequent queries on this thread.
  //
  //   * Synchronous algorithms apply inserts inline - the default is a
  //     no-op.
  //   * The sharded front-end (shard/sharded_topk.h) waits until its worker
  //     threads have drained all queued packets.
  //   * The concurrent shared-slab mode (concurrent/concurrent_topk.h)
  //     drains its rings, then issues a seq_cst fence so every slab and
  //     candidate-store word written by the workers is published.
  //
  // After Flush() returns (and absent further inserts), Snapshot() returns
  // the kExact flows whatever was requested; a threaded front-end still
  // labels a kRelaxed request kRelaxed, since it did not check. Quiesced
  // queries (TopK/EstimateSize) behave as if Flush() ran first, so calling
  // it explicitly is only needed to bound *when* the work happens (e.g.
  // inside a timed region) or to upgrade a later Snapshot to kExact.
  virtual void Flush() {}

  // Point-in-time top-k view with documented consistency. This is the
  // preferred query surface: it states what the numbers mean while inserts
  // may be racing (QueryResult::consistency) instead of leaving it to
  // convention. The default wraps Flush() + TopK(), which is exact for
  // every synchronous algorithm; Sharded and Concurrent override it.
  virtual QueryResult Snapshot(const QueryOptions& options = {}) {
    Flush();
    QueryResult result;
    result.flows = TopK(options.k);
    result.consistency = ConsistencyLevel::kExact;
    result.stats.tracked_flows = result.flows.size();
    result.stats.min_tracked = result.flows.empty() ? 0 : result.flows.back().count;
    result.stats.worker_threads = WorkerThreads();
    result.stats.memory_bytes = MemoryBytes();
    result.stats.simd_kernel = ActiveSimdKernel();
    return result;
  }

  // The SIMD kernel the instance resolved at construction (simd/simd.h
  // dispatch), as a static string for SnapshotStats / serve STATS. ""
  // means the algorithm has no vectorized path; wrappers report their
  // inner's kernel.
  virtual const char* ActiveSimdKernel() const { return ""; }

  // Internal worker threads this instance runs (0 for synchronous
  // algorithms; a threaded sharded front-end reports its shard count).
  // Hosts that budget cores (ovs/pipeline.h's hardware clamp) ask this
  // instead of being told out of band.
  virtual size_t WorkerThreads() const { return 0; }

  // The k largest tracked flows with their estimated sizes,
  // ordered by (estimate desc, id asc).
  //
  // Legacy quiesced accessor. Calling it mid-stream - while inserts may be
  // in flight on other threads - is deprecated: it behaves as if Flush()
  // ran first, which silently serializes a concurrent pipeline. Prefer
  // Snapshot(), which makes the consistency of the answer explicit (and
  // can answer kRelaxed without stalling the writers).
  virtual std::vector<FlowCount> TopK(size_t k) const = 0;

  // Point estimate of a single flow's size (0 = reported as a mouse flow /
  // untracked). Same quiesced-read caveat as TopK().
  virtual uint64_t EstimateSize(FlowId id) const = 0;

  // Batched point estimates: out[i] = EstimateSize(ids[i]). `out` must be
  // at least as long as `ids`. Implementations may batch the hashing and
  // probe their buckets vectorized (the HeavyKeeper pipelines do), but the
  // values must equal the element-by-element loop exactly. This is the
  // WindowedTopK merge-and-rescore hot path.
  virtual void EstimateSizeBatch(std::span<const FlowId> ids, std::span<uint64_t> out) const {
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] = EstimateSize(ids[i]);
    }
  }

  // Checkpoint support (the hk_serve crash-recovery path). SaveState()
  // appends an opaque algorithm-specific blob to `out` capturing the full
  // query-visible state: loading the blob into a freshly constructed
  // instance of the *identical spec* (MakeSketch(name()) with the same
  // defaults and seed) must make Snapshot(kExact), TopK, and EstimateSize
  // answer as the saved instance did. RNG position is deliberately not
  // captured: decay coins restart from the config seed, which is the
  // serialization v2 precedent (statistically identical, bit-identical
  // whenever no randomized transition runs).
  //
  // Both default to "not supported" (return false, out untouched); the
  // registry round-trip sweep in tests/serve_checkpoint_test.cpp fails on
  // any registered name still answering false. Callers must Flush() (or
  // hold the instance quiesced) around both calls; LoadState on a
  // non-empty instance is undefined.
  virtual bool SaveState(std::vector<uint8_t>* out) const {
    (void)out;
    return false;
  }
  virtual bool LoadState(const uint8_t* data, size_t size) {
    (void)data;
    (void)size;
    return false;
  }

  // Display name; also a canonical registry spec: MakeSketch(name())
  // reconstructs an equivalently configured instance (see
  // sketch/registry.h).
  virtual std::string name() const = 0;

  // Bytes charged under the paper's memory accounting.
  virtual size_t MemoryBytes() const = 0;
};

}  // namespace hk

#endif  // HK_SKETCH_TOPK_ALGORITHM_H_
