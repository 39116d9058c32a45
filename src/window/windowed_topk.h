// Sliding-window top-k: a ring of W mergeable per-epoch sketches.
//
// The paper's own deployment framing measures in short periods ("each
// period is often small, for example, 10M packets", Section VI-A) and
// offload-style consumers want *recent* elephants, not all-time ones.
// WindowedTopK answers "top-k over the last W epochs" while every other
// TopKAlgorithm in the library answers "top-k since boot":
//
//   * The ring holds W inner sketch instances, one per epoch, all built
//     from the same registry spec with an equal 1/W slice of the byte
//     budget and the same seed (slots cover disjoint time slices, so
//     identical hash functions cannot interact - the ShardedTopK
//     precedent).
//   * Inserts land in the *current* slot. After epoch_packets packets the
//     ring rotates: the completed slot's exact report goes to the optional
//     epoch callback, and the oldest slot is rebuilt fresh to become the
//     new current epoch - its old contents age out of every answer at
//     that instant. A new ring builds only slot 0; slot i is first built
//     when the ring advances into it, and until then it answers, counts
//     toward MemoryBytes() and checkpoints exactly as a fresh slot.
//   * Rotate() is also public so a capture-time driver (the TraceReplayer
//     overload in ingest/trace_replayer.h, hk_cli ingest --window) can
//     rotate on timestamps instead; one Rotate() per elapsed window keeps
//     empty windows' (empty) reports flowing.
//   * Snapshot()/TopK() merge the W per-slot reports with
//     MergeTopK(kSumById): the same flow id appears in several epochs and
//     its sliding estimate is the sum of its per-epoch estimates. A flow
//     absent from a slot's report contributes 0 for that slot, so merged
//     estimates are lower bounds of a full-resolution sliding sketch; with
//     per-slot report width k the answer is exact-recall whenever the true
//     sliding top-k flows each rank <= k inside every epoch they dominate
//     (tests/window_test.cpp pins recall >= 0.9 on the committed fixture
//     captures against a brute-force sliding oracle).
//
// Report cache: only the current slot changes between rotations, so each
// completed slot's report is kept with the depth it was asked at, and a
// query re-asks a completed slot only when it has no report at that exact
// depth (a query at another k recomputes rather than assuming a prefix
// property of the inner). The current slot is always asked afresh. Rotate()
// drops the entry of the slot it rebuilds; LoadState() drops every entry,
// whether or not it accepts the blob. The answers, tracked_flows and
// min_tracked equal an uncached merge exactly. The cache is at most
// W * depth FlowCounts and, like LazyTopKStore's index, is not charged to
// MemoryBytes().
//
// Thread safety: TopK() is const but fills that cache, so a Window
// instance needs the same external serialization for queries as for
// inserts - one caller at a time (hk_serve holds the instance mutex for
// every call).
//
// Staleness bounds: an answer covers the current partial epoch plus the
// W-1 most recent completed ones - between (W-1) and W epochs of stream,
// so a flow's packets influence answers for at most W * epoch_packets
// packets (capture-time mode: W windows) after arrival.
//
// Composition rules (tested in window_test.cpp):
//   * inner may be any registered spec with WorkerThreads() == 0 -
//     including synchronous Sharded. Threaded front-ends (Sharded:threads=1,
//     Concurrent) are refused: a ring would keep (W-1) * threads idle
//     workers alive for slots that can never receive another packet.
//   * Window inside Window is refused (one ring per stream; nested rings
//     have no coherent rotation order).
//   * Window as the inner of Sharded/Concurrent is refused over there:
//     epoch rotation must be stream-global, and per-shard rings would
//     rotate on per-shard packet counts, desynchronizing the windows.
//
// Registry spec (inner= is greedy, so it comes last):
//
//   "Window:w=8,epoch=10000000,inner=HK-Minimum:d=4,b=1.05"
#ifndef HK_WINDOW_WINDOWED_TOPK_H_
#define HK_WINDOW_WINDOWED_TOPK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sketch/registry.h"
#include "sketch/topk_algorithm.h"
#include "telemetry/telemetry.h"

namespace hk {

struct WindowedTopKOptions {
  size_t window_epochs = 8;               // W: ring slots, current epoch included
  uint64_t epoch_packets = 10'000'000;    // packet-count rotation threshold
  std::string inner_spec = "HK-Minimum";  // registry spec for every slot
};

class WindowedTopK : public TopKAlgorithm {
 public:
  // Registry-enforced bound on the ring size: W full sketch instances live
  // at once, so an unbounded w= would be a memory-exhaustion spec.
  static constexpr size_t kMaxWindowEpochs = 256;

  // Passing this as epoch_packets disables packet-count rotation: the ring
  // only rotates through explicit Rotate() calls (capture-time drivers).
  static constexpr uint64_t kNoPacketRotation = UINT64_MAX;

  // Each slot tracks kMergeOversample * k candidates and the kSumById merge
  // consumes that full depth before truncating to k: a flow below rank k in
  // every individual epoch can still rank above k in the window-wide sum,
  // and a k-deep per-epoch cut would drop it before the merge ever sees it.
  static constexpr size_t kMergeOversample = 4;

  // Called with each completed epoch's exact report as the ring rotates
  // (the EpochMonitor callback shape; empty epochs deliver empty reports).
  using EpochCallback = std::function<void(uint64_t epoch, std::vector<FlowCount> report)>;

  // Builds W inner instances via MakeSketch(options.inner_spec) with
  // defaults.memory_bytes / W each. Throws std::invalid_argument on a
  // degenerate shape or a refused inner (composition rules above).
  WindowedTopK(const WindowedTopKOptions& options, const SketchDefaults& defaults,
               EpochCallback on_epoch = nullptr);

  void Insert(FlowId id) override;
  void InsertWeighted(FlowId id, uint64_t weight) override;
  void InsertBatch(std::span<const FlowId> ids) override;
  void InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) override;
  void Flush() override;

  // Sliding query: MergeTopK(kSumById) over the W per-slot reports (cached
  // for completed slots, see above) picks the candidates, then each
  // candidate is rescored with the bucket-level EstimateSize sum (see
  // MergedWindow) before truncating to k.
  QueryResult Snapshot(const QueryOptions& options = {}) override;
  std::vector<FlowCount> TopK(size_t k) const override;

  // Sliding point estimate: sum of the per-slot estimates (each 0 when the
  // slot never tracked the flow). 0 once the flow's epochs aged out.
  uint64_t EstimateSize(FlowId id) const override;

  // Batched sliding estimates: one inner EstimateSizeBatch per slot
  // (vectorized hash + probe in the HK inners), accumulated per id. Equals
  // the element-by-element loop exactly; this is the merge-and-rescore path.
  void EstimateSizeBatch(std::span<const FlowId> ids, std::span<uint64_t> out) const override;

  const char* ActiveSimdKernel() const override;

  std::string name() const override;
  size_t MemoryBytes() const override;
  size_t WorkerThreads() const override;

  // Ring checkpoint: all W slot blobs plus the rotation cursor, so a
  // recovered instance keeps answering the same sliding window and keeps
  // rotating at the same packet boundaries (serve/checkpoint.h path).
  // LoadState is all-or-nothing: a blob any slot rejects leaves the ring
  // exactly as it was.
  bool SaveState(std::vector<uint8_t>* out) const override;
  bool LoadState(const uint8_t* data, size_t size) override;

  // Close the current epoch now: deliver its exact report to the callback,
  // then rebuild the oldest slot as the new (empty) current epoch. Safe to
  // call on an empty epoch - idle capture-time windows rotate through here.
  void Rotate();

  uint64_t completed_epochs() const { return epoch_; }
  uint64_t packets_in_current_epoch() const { return in_epoch_; }
  size_t window_epochs() const { return slots_.size(); }
  uint64_t epoch_packets() const { return options_.epoch_packets; }

 private:
  std::unique_ptr<TopKAlgorithm> MakeSlot() const;
  void CountPackets(uint64_t packets);
  std::vector<FlowCount> MergedWindow(size_t k, size_t* tracked) const;

  WindowedTopKOptions options_;
  SketchDefaults slot_defaults_;  // per-slot context (memory already / W)
  EpochCallback on_epoch_;
  std::string inner_name_;  // canonical inner spec, pinned at construction
  // One slot per epoch; null until the ring first advances into it.
  std::vector<std::unique_ptr<TopKAlgorithm>> slots_;
  size_t empty_slot_bytes_ = 0;  // MemoryBytes() of a freshly built slot
  // Report cache, one entry per slot: reports_[i] is slots_[i]->TopK(
  // report_depth_[i]), or stale when report_depth_[i] == kNoReport (always
  // so for the current slot). Mutable: the const queries fill it.
  static constexpr size_t kNoReport = SIZE_MAX;
  mutable std::vector<std::vector<FlowCount>> reports_;
  mutable std::vector<size_t> report_depth_;
  size_t current_ = 0;     // ring index of the filling epoch
  uint64_t epoch_ = 0;     // completed epochs
  uint64_t in_epoch_ = 0;  // packets in the filling epoch

  telemetry::Counter* tm_rotations_;
  telemetry::Histogram* tm_snapshot_us_;  // merge-and-rescore latency
};

}  // namespace hk

#endif  // HK_WINDOW_WINDOWED_TOPK_H_
