// Sliding-window top-k tests (src/window/windowed_topk.h): spec grammar
// and composition rules, ring rotation/eviction semantics against exact
// inner sketches, the batch == scalar determinism contract across epoch
// boundaries, checkpointing of the whole ring, capture-time windowing
// through TraceReplayer (idle gaps -> one rotation per skipped window),
// the acceptance gate: Window:w=8,inner=HK-Minimum reaches recall >= 0.9
// against a brute-force sliding exact oracle on both committed fixture
// captures, the per-slot report cache against cache-free twins, and the
// cache under hk_serve's concurrent ingest and queries (the TSan CI job
// runs this suite).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ingest/capture_synth.h"
#include "ingest/pcap_reader.h"
#include "ingest/pcap_writer.h"
#include "ingest/trace_replayer.h"
#include "metrics/accuracy.h"
#include "serve/serve_core.h"
#include "sketch/registry.h"
#include "trace/generators.h"
#include "trace/oracle.h"
#include "window/windowed_topk.h"

namespace hk {
namespace {

constexpr size_t kK = 20;

SketchDefaults TestDefaults() {
  SketchDefaults d;
  d.memory_bytes = 96 * 1024;
  d.k = kK;
  d.key_kind = KeyKind::kSynthetic4B;
  d.seed = 9;
  return d;
}

// A ring whose inner is exact: Space-Saving is deterministic and counts
// exactly while distinct flows fit its capacity, so per-epoch reports and
// their kSumById merge can be asserted to the packet.
std::unique_ptr<WindowedTopK> ExactRing(size_t w, uint64_t epoch_packets,
                                        WindowedTopK::EpochCallback on_epoch = nullptr) {
  WindowedTopKOptions options;
  options.window_epochs = w;
  options.epoch_packets = epoch_packets;
  options.inner_spec = "SS";
  return std::make_unique<WindowedTopK>(options, TestDefaults(), std::move(on_epoch));
}

TEST(WindowSpecTest, ConstructsFromSpecAndRoundTrips) {
  auto algo = MakeSketch("Window:w=4,epoch=1000,inner=HK-Minimum:d=4", TestDefaults());
  EXPECT_EQ(algo->name(), "Window:w=4,epoch=1000,inner=HeavyKeeper-Minimum:d=4");
  EXPECT_EQ(algo->WorkerThreads(), 0u);
  auto again = MakeSketch(algo->name(), TestDefaults());
  EXPECT_EQ(again->name(), algo->name());
  EXPECT_EQ(again->MemoryBytes(), algo->MemoryBytes());

  // Defaults: w=8, epoch=10M packets, HK-Minimum inner.
  auto bare = MakeSketch("Window", TestDefaults());
  EXPECT_EQ(bare->name(), "Window:w=8,epoch=10000000,inner=HeavyKeeper-Minimum");
  // The ring splits the byte budget: W slots within the total.
  EXPECT_LE(bare->MemoryBytes(), TestDefaults().memory_bytes);
}

TEST(WindowSpecTest, RejectsDegenerateAndComposedSpecs) {
  EXPECT_THROW(MakeSketch("Window:w=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Window:w=500"), std::invalid_argument);  // > kMaxWindowEpochs
  EXPECT_THROW(MakeSketch("Window:epoch=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Window:bogus=1"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Window:inner=NotARealSketch"), std::invalid_argument);
  // One ring per stream: nesting has no coherent rotation order.
  EXPECT_THROW(MakeSketch("Window:inner=Window:w=2"), std::invalid_argument);
  // Threaded inners are refused: (W-1)*threads workers would idle on slots
  // that can never receive another packet.
  EXPECT_THROW(MakeSketch("Window:inner=Sharded:n=2,threads=1,inner=HK-Minimum"),
               std::invalid_argument);
  // The other direction: epoch rotation must be stream-global, so Window
  // cannot sit under a partitioner (per-shard rings would desynchronize).
  EXPECT_THROW(MakeSketch("Sharded:n=2,inner=Window:w=2"), std::invalid_argument);
}

TEST(WindowSpecTest, SynchronousShardedInnerIsAllowed) {
  auto algo = MakeSketch("Window:w=2,epoch=1000,inner=Sharded:n=2,inner=HK-Minimum",
                         TestDefaults());
  EXPECT_EQ(algo->WorkerThreads(), 0u);
  for (FlowId id = 1; id <= 100; ++id) {
    algo->InsertWeighted(id, id);
  }
  EXPECT_FALSE(algo->TopK(5).empty());
}

TEST(WindowRingTest, SlidingAnswerSumsEpochsAndEvictsAfterWRotations) {
  // Epochs of 100 packets, W = 3. Flow 1 runs through every epoch, each
  // epoch e also carries a one-epoch flow 100+e. With an exact inner the
  // sliding answer is exact arithmetic over the last W slots.
  auto ring = ExactRing(3, 100);
  for (uint64_t e = 0; e < 5; ++e) {
    for (int i = 0; i < 60; ++i) {
      ring->Insert(1);
    }
    for (int i = 0; i < 40; ++i) {
      ring->Insert(100 + e);
    }
  }
  // 500 packets / 100 per epoch: epochs 0..4 complete, current is empty.
  EXPECT_EQ(ring->completed_epochs(), 5u);
  EXPECT_EQ(ring->packets_in_current_epoch(), 0u);

  // Ring holds epochs 3, 4 and the (empty) current: flow 1 sums to 120.
  EXPECT_EQ(ring->EstimateSize(1), 120u);
  EXPECT_EQ(ring->EstimateSize(103), 40u);
  EXPECT_EQ(ring->EstimateSize(104), 40u);
  EXPECT_EQ(ring->EstimateSize(100), 0u);  // aged out with epoch 0
  EXPECT_EQ(ring->EstimateSize(102), 0u);  // aged out when its slot was rebuilt

  const auto top = ring->TopK(3);
  const std::vector<FlowCount> expected = {{1, 120}, {103, 40}, {104, 40}};
  EXPECT_EQ(top, expected);

  const QueryResult result = ring->Snapshot({.k = 3});
  EXPECT_EQ(result.flows, expected);
  EXPECT_EQ(result.consistency, ConsistencyLevel::kExact);
  EXPECT_EQ(result.stats.min_tracked, 40u);
  EXPECT_EQ(result.stats.memory_bytes, ring->MemoryBytes());
}

TEST(WindowRingTest, EpochCallbackDeliversEachCompletedWindow) {
  std::vector<std::pair<uint64_t, std::vector<FlowCount>>> reports;
  auto ring = ExactRing(4, 10, [&](uint64_t epoch, std::vector<FlowCount> report) {
    reports.emplace_back(epoch, std::move(report));
  });
  for (int i = 0; i < 10; ++i) {
    ring->Insert(7);
  }
  // Idle stretch: forced rotations close empty windows, and each one still
  // reports (an empty window is a window).
  ring->Rotate();
  ring->Rotate();
  ASSERT_EQ(reports.size(), 3u);
  for (size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].first, i);  // completed-epoch indices 0..R-1
  }
  EXPECT_EQ(reports[0].second, (std::vector<FlowCount>{{7, 10}}));
  EXPECT_TRUE(reports[1].second.empty());
  EXPECT_TRUE(reports[2].second.empty());
  EXPECT_EQ(ring->completed_epochs(), 3u);
  // Three rotations rebuilt the other three slots; flow 7's slot is the
  // oldest survivor. The 4th rotation (w=4) rebuilds it: evicted.
  EXPECT_EQ(ring->EstimateSize(7), 10u);
  ring->Rotate();
  EXPECT_EQ(ring->EstimateSize(7), 0u);
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_TRUE(reports[3].second.empty());
}

TEST(WindowRingTest, InsertBatchSplitsAtEpochBoundariesBitExactly) {
  // Batches that straddle rotation points must land exactly like the
  // scalar path: same rotations, same per-slot contents, same answers.
  WindowedTopKOptions options;
  options.window_epochs = 4;
  options.epoch_packets = 997;  // prime: boundaries fall mid-batch
  options.inner_spec = "HK-Minimum";
  WindowedTopK scalar(options, TestDefaults());
  WindowedTopK batched(options, TestDefaults());

  ZipfTraceConfig config;
  config.num_packets = 10'000;
  config.num_ranks = 1'000;
  config.skew = 1.1;
  config.seed = 5;
  const auto packets = MakeZipfTrace(config).packets;

  for (const FlowId id : packets) {
    scalar.Insert(id);
  }
  batched.InsertBatch(packets);

  EXPECT_EQ(scalar.completed_epochs(), batched.completed_epochs());
  EXPECT_EQ(scalar.packets_in_current_epoch(), batched.packets_in_current_epoch());
  EXPECT_EQ(scalar.TopK(kK), batched.TopK(kK));

  // Weighted batches follow the same chunking.
  WindowedTopK wscalar(options, TestDefaults());
  WindowedTopK wbatched(options, TestDefaults());
  std::vector<uint64_t> weights(packets.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    weights[i] = 1 + (i % 3);
  }
  for (size_t i = 0; i < packets.size(); ++i) {
    wscalar.InsertWeighted(packets[i], weights[i]);
  }
  wbatched.InsertBatch(packets, weights);
  EXPECT_EQ(wscalar.completed_epochs(), wbatched.completed_epochs());
  EXPECT_EQ(wscalar.TopK(kK), wbatched.TopK(kK));
}

TEST(WindowCheckpointTest, SaveLoadRestoresRingContentsAndCursor) {
  auto saved = ExactRing(3, 100);
  // Two and a half epochs: slot contents differ per epoch and the cursor
  // sits mid-window.
  for (uint64_t e = 0; e < 2; ++e) {
    for (int i = 0; i < 100; ++i) {
      saved->Insert(10 + e);
    }
  }
  for (int i = 0; i < 50; ++i) {
    saved->Insert(99);
  }
  EXPECT_EQ(saved->completed_epochs(), 2u);
  EXPECT_EQ(saved->packets_in_current_epoch(), 50u);

  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob));

  auto loaded = ExactRing(3, 100);
  ASSERT_TRUE(loaded->LoadState(blob.data(), blob.size()));
  EXPECT_EQ(loaded->completed_epochs(), 2u);
  EXPECT_EQ(loaded->packets_in_current_epoch(), 50u);
  EXPECT_EQ(loaded->TopK(kK), saved->TopK(kK));
  EXPECT_EQ(loaded->EstimateSize(10), 100u);
  EXPECT_EQ(loaded->EstimateSize(99), 50u);

  // The restored cursor keeps rotating at the same packet boundaries: 50
  // more packets close the current epoch on both instances, and the next
  // rotation evicts the same oldest slot.
  for (int i = 0; i < 50; ++i) {
    saved->Insert(99);
    loaded->Insert(99);
  }
  EXPECT_EQ(loaded->completed_epochs(), saved->completed_epochs());
  EXPECT_EQ(loaded->TopK(kK), saved->TopK(kK));
  for (int i = 0; i < 100; ++i) {
    saved->Insert(7);
    loaded->Insert(7);
  }
  EXPECT_EQ(loaded->EstimateSize(10), 0u);  // epoch 0 aged out on both
  EXPECT_EQ(loaded->TopK(kK), saved->TopK(kK));
}

TEST(WindowCheckpointTest, LoadRejectsMismatchedRingShape) {
  auto saved = ExactRing(3, 100);
  saved->Insert(1);
  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob));
  // Different W or epoch width: the blob is for another ring shape.
  EXPECT_FALSE(ExactRing(4, 100)->LoadState(blob.data(), blob.size()));
  EXPECT_FALSE(ExactRing(3, 200)->LoadState(blob.data(), blob.size()));
  EXPECT_TRUE(ExactRing(3, 100)->LoadState(blob.data(), blob.size()));
}

// Byte offset of slot `slot`'s inner blob inside a WindowedTopK::SaveState
// blob: five u64 ring fields, then one u64-length-prefixed blob per slot.
size_t SlotBlobOffset(const std::vector<uint8_t>& blob, size_t slot) {
  size_t pos = 5 * sizeof(uint64_t);
  for (size_t i = 0; i < slot; ++i) {
    uint64_t n = 0;
    std::memcpy(&n, blob.data() + pos, sizeof(n));
    pos += sizeof(n) + static_cast<size_t>(n);
  }
  return pos + sizeof(uint64_t);
}

TEST(WindowCheckpointTest, RejectedSlotBlobLeavesTheRingUntouched) {
  // A well-framed blob whose slot-3 inner blob is rejected: slots 0..2
  // accept theirs, so a slot-by-slot load would already have overwritten
  // them. The ring must come out exactly as it went in.
  WindowedTopKOptions options;
  options.window_epochs = 8;
  options.epoch_packets = 1000;
  options.inner_spec = "HK-Minimum";
  WindowedTopK ring(options, TestDefaults());
  WindowedTopK other(options, TestDefaults());
  ZipfTraceConfig config;
  config.num_packets = 9'500;
  config.num_ranks = 1'000;
  config.skew = 1.1;
  config.seed = 5;
  ring.InsertBatch(MakeZipfTrace(config).packets);
  config.seed = 6;
  other.InsertBatch(MakeZipfTrace(config).packets);

  std::vector<uint8_t> blob;
  ASSERT_TRUE(other.SaveState(&blob));
  std::vector<uint8_t> corrupt = blob;
  // The HK inner blob is a length-prefixed sketch blob that opens with its
  // u64 magic.
  corrupt[SlotBlobOffset(corrupt, 3) + sizeof(uint64_t)] ^= 0xFF;

  std::vector<uint8_t> before;
  ASSERT_TRUE(ring.SaveState(&before));
  const QueryResult answer = ring.Snapshot({.k = kK});
  ASSERT_FALSE(answer.flows.empty());

  EXPECT_FALSE(ring.LoadState(corrupt.data(), corrupt.size()));
  std::vector<uint8_t> after;
  ASSERT_TRUE(ring.SaveState(&after));
  EXPECT_EQ(after, before);
  const QueryResult again = ring.Snapshot({.k = kK});
  EXPECT_EQ(again.flows, answer.flows);
  EXPECT_EQ(again.stats.tracked_flows, answer.stats.tracked_flows);
  EXPECT_EQ(again.stats.min_tracked, answer.stats.min_tracked);

  // The intact blob loads: the rejection above was slot 3's alone.
  EXPECT_TRUE(ring.LoadState(blob.data(), blob.size()));
  EXPECT_EQ(ring.TopK(kK), other.TopK(kK));
}

// ---------------------------------------------------------------------------
// Capture-time windowing through TraceReplayer.

struct GapCapture {
  std::string path;
  std::vector<FlowId> phase_a_ids;  // distinct flows of the pre-gap burst
  std::vector<FlowId> phase_b_ids;
  Oracle phase_a;  // exact per-phase packet counts
  Oracle phase_b;
  uint64_t t0 = 0;
};

constexpr uint64_t kEpochNs = 1'000'000;  // 1 ms windows

// Two bursts separated by an idle gap of 5.5 windows: phase A fills window
// 0, windows 1..4 are empty, phase B lands in window 5. Flow identities
// are learned by reading the capture back, so the oracles are exact under
// the reader's own key derivation.
GapCapture WriteGapCapture(const std::string& name) {
  GapCapture cap;
  cap.path = std::string(::testing::TempDir()) + "/" + name;
  cap.t0 = 1'500'000'000ULL * 1'000'000'000ULL;

  PcapWriter writer;
  EXPECT_TRUE(writer.Open(cap.path));
  uint64_t ts = cap.t0;
  // Phase A: 120 packets over ranks 0..2 (60/40/20), spanning 120 us.
  const int counts_a[] = {60, 40, 20};
  for (int rank = 0; rank < 3; ++rank) {
    for (int i = 0; i < counts_a[rank]; ++i) {
      EXPECT_TRUE(writer.Write(RankToTuple(rank, KeyKind::kFiveTuple13B, 9), ts, 200));
      ts += 1000;
    }
  }
  // Idle gap: phase B starts 5.5 windows after t0.
  ts = cap.t0 + 5 * kEpochNs + kEpochNs / 2;
  const int counts_b[] = {50, 30};
  for (int rank = 10; rank < 12; ++rank) {
    for (int i = 0; i < counts_b[rank - 10]; ++i) {
      EXPECT_TRUE(writer.Write(RankToTuple(rank, KeyKind::kFiveTuple13B, 9), ts, 200));
      ts += 1000;
    }
  }
  EXPECT_TRUE(writer.Close());

  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  EXPECT_TRUE(reader.Open(cap.path)) << reader.error();
  PacketRecord record;
  while (reader.Next(&record)) {
    if (record.timestamp_ns < cap.t0 + kEpochNs) {
      cap.phase_a.Add(record.id);
      if (cap.phase_a.Count(record.id) == 1) {
        cap.phase_a_ids.push_back(record.id);
      }
    } else {
      cap.phase_b.Add(record.id);
      if (cap.phase_b.Count(record.id) == 1) {
        cap.phase_b_ids.push_back(record.id);
      }
    }
  }
  EXPECT_EQ(cap.phase_a.total_packets(), 120u);
  EXPECT_EQ(cap.phase_b.total_packets(), 80u);
  return cap;
}

TEST(WindowReplayTest, IdleGapRotatesOncePerSkippedWindowAndEvictsTheRing) {
  const GapCapture cap = WriteGapCapture("window_gap.pcap");

  std::vector<std::pair<uint64_t, std::vector<FlowCount>>> reports;
  WindowedTopKOptions options;
  options.window_epochs = 4;
  options.epoch_packets = WindowedTopK::kNoPacketRotation;  // capture clock only
  options.inner_spec = "SS";
  WindowedTopK ring(options, TestDefaults(),
                    [&](uint64_t epoch, std::vector<FlowCount> report) {
                      reports.emplace_back(epoch, std::move(report));
                    });

  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  ASSERT_TRUE(reader.Open(cap.path)) << reader.error();
  ReplayOptions replay;
  replay.epoch_ns = kEpochNs;
  const ReplayStats stats = TraceReplayer(replay).Replay(reader, ring);

  // The gap spans 5 window boundaries: exactly 5 rotations, and the
  // replayer's count agrees with the ring's.
  EXPECT_EQ(stats.packets, 200u);
  EXPECT_EQ(stats.epochs, 5u);
  EXPECT_EQ(ring.completed_epochs(), 5u);

  // Window 0's report is phase A exactly; the four idle windows reported
  // empty even though no packet arrived inside them.
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_EQ(reports[0].first, 0u);
  EXPECT_EQ(reports[0].second, cap.phase_a.TopK(kK));
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(reports[i].first, i);
    EXPECT_TRUE(reports[i].second.empty()) << "idle window " << i << " reported flows";
  }

  // 5 rotations > W=4: the gap cleared the whole ring, so phase A is fully
  // aged out and the sliding answer is phase B alone, exactly.
  for (const FlowId id : cap.phase_a_ids) {
    EXPECT_EQ(ring.EstimateSize(id), 0u);
  }
  EXPECT_EQ(ring.TopK(kK), cap.phase_b.TopK(kK));
}

// ---------------------------------------------------------------------------
// ISSUE 8 acceptance gate: sliding recall on the committed fixtures.

std::string CampusFixture() { return std::string(HK_TEST_DATA_DIR) + "/fixture_campus.pcap"; }
std::string CaidaFixture() { return std::string(HK_TEST_DATA_DIR) + "/fixture_caida.pcapng"; }

std::vector<FlowId> ReadIds(const std::string& path, PcapKeyPolicy policy) {
  PcapReader reader(policy);
  EXPECT_TRUE(reader.Open(path)) << reader.error();
  std::vector<FlowId> ids;
  PacketRecord record;
  while (reader.Next(&record)) {
    ids.push_back(record.id);
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  return ids;
}

void ExpectSlidingRecallAtLeastPoint9(const std::string& path, PcapKeyPolicy policy,
                                      KeyKind kind) {
  const std::vector<FlowId> ids = ReadIds(path, policy);
  ASSERT_GT(ids.size(), 0u);

  // 16 epochs over the capture with an 8-deep ring: the window covers
  // roughly the newest half of the stream, so the sliding answer is
  // genuinely different from the since-boot one.
  WindowedTopKOptions options;
  options.window_epochs = 8;
  options.epoch_packets = ids.size() / 16;
  options.inner_spec = "HK-Minimum";
  SketchDefaults defaults;
  defaults.memory_bytes = 128 * 1024;
  defaults.k = kK;
  defaults.key_kind = kind;
  defaults.seed = 9;
  WindowedTopK ring(options, defaults);
  ring.InsertBatch(ids);

  // Brute-force sliding exact oracle: count only the packets inside the
  // epochs the ring still holds (the W-1 newest completed plus the
  // current partial one).
  const uint64_t completed = ring.completed_epochs();
  const uint64_t oldest_live =
      completed >= options.window_epochs - 1 ? completed - (options.window_epochs - 1) : 0;
  const size_t start = static_cast<size_t>(oldest_live * options.epoch_packets);
  ASSERT_LT(start, ids.size());
  Oracle sliding;
  for (size_t i = start; i < ids.size(); ++i) {
    sliding.Add(ids[i]);
  }
  ASSERT_LT(sliding.total_packets(), ids.size());  // the window truly slid

  const AccuracyReport report = EvaluateTopK(ring.TopK(kK), sliding, kK);
  EXPECT_GE(report.recall, 0.9) << path;
}

TEST(WindowAcceptanceTest, CampusFixtureSlidingRecallAtLeastPoint9) {
  ExpectSlidingRecallAtLeastPoint9(CampusFixture(), PcapKeyPolicy::kFiveTuple,
                                   KeyKind::kFiveTuple13B);
}

TEST(WindowAcceptanceTest, CaidaFixtureSlidingRecallAtLeastPoint9) {
  ExpectSlidingRecallAtLeastPoint9(CaidaFixture(), PcapKeyPolicy::kAddrPair,
                                   KeyKind::kAddrPair8B);
}

// ---------------------------------------------------------------------------
// A new ring builds only its first slot; the others are built when the ring
// first advances into them. Until then each must act as a fresh slot: the
// same answers, accounting and checkpoint bytes as a twin whose slots were
// all built by LoadState.

void ExpectSameAsBuiltTwin(WindowedTopK& ring, const TopKAlgorithm& twin,
                           std::span<const FlowId> probes, const std::string& where) {
  std::vector<uint8_t> ring_blob;
  std::vector<uint8_t> twin_blob;
  ASSERT_TRUE(ring.SaveState(&ring_blob)) << where;
  ASSERT_TRUE(twin.SaveState(&twin_blob)) << where;
  EXPECT_EQ(ring_blob, twin_blob) << where;
  EXPECT_EQ(ring.MemoryBytes(), twin.MemoryBytes()) << where;
  EXPECT_EQ(ring.TopK(kK), twin.TopK(kK)) << where;
  std::vector<uint64_t> ring_counts(probes.size());
  std::vector<uint64_t> twin_counts(probes.size());
  ring.EstimateSizeBatch(probes, ring_counts);
  twin.EstimateSizeBatch(probes, twin_counts);
  EXPECT_EQ(ring_counts, twin_counts) << where;
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(ring.EstimateSize(probes[i]), twin_counts[i]) << where << " id " << probes[i];
  }
}

TEST(WindowLazySlotTest, UnbuiltSlotsActAsFreshSlots) {
  for (const char* inner : {"HK-Minimum", "SS"}) {
    WindowedTopKOptions options;
    options.window_epochs = 8;
    options.epoch_packets = 500;
    options.inner_spec = inner;
    const SketchDefaults defaults = TestDefaults();
    WindowedTopK ring(options, defaults);
    std::vector<uint8_t> blob;
    ASSERT_TRUE(ring.SaveState(&blob));
    auto twin = MakeSketch(ring.name(), defaults);
    ASSERT_TRUE(twin->LoadState(blob.data(), blob.size())) << inner;

    // Flow 1 is every third packet; the rest spread over flows 1..50.
    std::vector<FlowId> ids;
    for (size_t i = 0; i < 6000; ++i) {
      ids.push_back(i % 3 == 0 ? 1 : 1 + i * 7919 % 50);
    }
    const std::vector<FlowId> probes = {1, 2, 3, 17, 49, 1000};
    const std::string label(inner);
    ExpectSameAsBuiltTwin(ring, *twin, probes, label + " fresh");
    const std::span<const FlowId> all(ids);
    // 1750 packets: three completed epochs, slots 4..7 still unbuilt; then
    // past the wrap (6000 packets = 12 epochs), where every slot is built.
    for (const size_t end : {size_t{1750}, ids.size()}) {
      const size_t begin = ring.completed_epochs() * options.epoch_packets +
                           ring.packets_in_current_epoch();
      ring.InsertBatch(all.subspan(begin, end - begin));
      twin->InsertBatch(all.subspan(begin, end - begin));
      ExpectSameAsBuiltTwin(ring, *twin, probes, label + " after " + std::to_string(end));
    }
    EXPECT_EQ(ring.completed_epochs(), 12u);
  }
}

// ---------------------------------------------------------------------------
// The per-slot report cache answers exactly what a cache-free ring would.

// Snapshot and TopK of `ring` against a twin rebuilt from its SaveState at
// this instant: the same state with an empty report cache.
void ExpectAnswerOfFreshTwin(WindowedTopK& ring, const SketchDefaults& defaults, size_t k,
                             const std::string& where) {
  std::vector<uint8_t> blob;
  ASSERT_TRUE(ring.SaveState(&blob));
  auto twin = MakeSketch(ring.name(), defaults);
  ASSERT_TRUE(twin->LoadState(blob.data(), blob.size())) << where;
  const QueryResult fresh = twin->Snapshot({.k = k});
  const QueryResult live = ring.Snapshot({.k = k});
  EXPECT_EQ(live.flows, fresh.flows) << where;
  EXPECT_EQ(live.stats.tracked_flows, fresh.stats.tracked_flows) << where;
  EXPECT_EQ(live.stats.min_tracked, fresh.stats.min_tracked) << where;
  // Same depth again, nothing inserted in between: every completed slot
  // answers from its cache entry.
  EXPECT_EQ(ring.TopK(k), fresh.flows) << where;
}

// Feed a w=8 ring the capture in steps, querying after each step with k
// cycling 10/100/250 (two steps per k, so completed slots are reused at an
// unchanged depth), with packet rotations, an explicit Rotate() every fifth
// step, and one mid-stream LoadState that rewinds the live ring to an
// earlier blob and replays the capture from there.
void ExpectCacheMatchesFreshTwins(const std::string& inner, const std::string& path,
                                  PcapKeyPolicy policy, KeyKind kind) {
  const std::vector<FlowId> ids = ReadIds(path, policy);
  ASSERT_GT(ids.size(), 2'000u);
  WindowedTopKOptions options;
  options.window_epochs = 8;
  options.epoch_packets = ids.size() / 24;
  options.inner_spec = inner;
  SketchDefaults defaults;
  defaults.memory_bytes = 128 * 1024;
  defaults.k = 100;
  defaults.key_kind = kind;
  defaults.seed = 9;
  WindowedTopK ring(options, defaults);

  constexpr size_t kKs[] = {10, 100, 250};
  const size_t step = ids.size() / 40;
  const std::span<const FlowId> all(ids);
  std::vector<uint8_t> rewind_blob;
  size_t rewind_pos = 0;
  bool rewound = false;
  size_t query = 0;
  for (size_t pos = 0; pos < ids.size(); ++query) {
    const size_t n = std::min(step, ids.size() - pos);
    ring.InsertBatch(all.subspan(pos, n));
    pos += n;
    if (query % 5 == 4) {
      ring.Rotate();
    }
    const size_t k = kKs[(query / 2) % 3];
    ExpectAnswerOfFreshTwin(ring, defaults, k,
                            inner + " query " + std::to_string(query) + " k=" + std::to_string(k));
    if (rewind_blob.empty() && pos >= ids.size() / 3) {
      ASSERT_TRUE(ring.SaveState(&rewind_blob));
      rewind_pos = pos;
    } else if (!rewound && pos >= 2 * ids.size() / 3) {
      // The live ring's cache holds reports of the later state; the load
      // must drop them all.
      ASSERT_TRUE(ring.LoadState(rewind_blob.data(), rewind_blob.size()));
      rewound = true;
      pos = rewind_pos;
      ExpectAnswerOfFreshTwin(ring, defaults, k, inner + " after LoadState");
    }
  }
  EXPECT_TRUE(rewound);
  EXPECT_GT(ring.completed_epochs(), options.window_epochs);
}

TEST(WindowCacheTest, HeavyKeeperRingMatchesFreshTwinsOnCampusFixture) {
  ExpectCacheMatchesFreshTwins("HK-Minimum", CampusFixture(), PcapKeyPolicy::kFiveTuple,
                               KeyKind::kFiveTuple13B);
}

TEST(WindowCacheTest, HeavyKeeperRingMatchesFreshTwinsOnCaidaFixture) {
  ExpectCacheMatchesFreshTwins("HK-Minimum", CaidaFixture(), PcapKeyPolicy::kAddrPair,
                               KeyKind::kAddrPair8B);
}

TEST(WindowCacheTest, SpaceSavingRingMatchesFreshTwinsOnCampusFixture) {
  ExpectCacheMatchesFreshTwins("SS", CampusFixture(), PcapKeyPolicy::kFiveTuple,
                               KeyKind::kFiveTuple13B);
}

TEST(WindowCacheTest, SpaceSavingRingMatchesFreshTwinsOnCaidaFixture) {
  ExpectCacheMatchesFreshTwins("SS", CaidaFixture(), PcapKeyPolicy::kAddrPair,
                               KeyKind::kAddrPair8B);
}

// ---------------------------------------------------------------------------
// The cache under hk_serve: windowed TOPK and POINT race the ingest thread
// on one instance (every Window call holds the instance lock).

std::vector<std::string> Lines(const std::string& response) {
  std::vector<std::string> lines;
  std::istringstream in(response);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(WindowServeTest, WindowTopKAndPointWhileIngesting) {
  const std::string path = std::string(::testing::TempDir()) + "/window_serve." +
                           std::to_string(getpid()) + ".pcap";
  const Trace trace = SynthesizeCapture(CaidaConfig(100'000, 17), path, CaptureSynthOptions{});
  ASSERT_EQ(trace.packets.size(), 100'000u);
  ServeOptions serve;
  serve.defaults.memory_bytes = 256 * 1024;
  serve.defaults.k = 100;
  serve.defaults.key_kind = KeyKind::kAddrPair8B;
  serve.defaults.seed = 1;
  const std::string spec = "Window:w=8,epoch=4000,inner=HK-Minimum";
  ServeCore core(serve);
  ASSERT_EQ(core.Execute("CREATE w " + spec), "OK created w\n");
  ASSERT_EQ(core.Execute("ATTACH w " + path + " key=pair"), "OK attached w\n");

  char point[48];
  std::snprintf(point, sizeof(point), "POINT w %llx",
                static_cast<unsigned long long>(trace.packets.front()));
  std::atomic<bool> stop{false};
  std::atomic<size_t> malformed{0};
  const auto query = [&](const std::string& line, const std::string& end_prefix) {
    do {  // at least once, even if ingest already finished
      const auto lines = Lines(core.Execute(line));
      if (lines.empty() || lines.back().rfind(end_prefix, 0) != 0) {
        malformed.fetch_add(1);
      }
    } while (!stop.load());
  };
  std::thread topk([&] { query("TOPK w 100 window", "END consistency=exact"); });
  std::thread points([&] { query(point, "OK "); });
  core.DrainIngest();
  stop.store(true);
  topk.join();
  points.join();
  EXPECT_EQ(malformed.load(), 0u);
  ASSERT_EQ(core.PacketsApplied("w"), trace.packets.size());

  // The served answer, cached slots and all, is the library ring's answer
  // for the same stream (batch == scalar makes chunking irrelevant).
  auto ring = MakeSketch(spec, serve.defaults);
  ring->InsertBatch(trace.packets);
  std::string expected;
  for (const FlowCount& flow : ring->TopK(100)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "FLOW %llx %llu\n", static_cast<unsigned long long>(flow.id),
                  static_cast<unsigned long long>(flow.count));
    expected += buf;
  }
  for (int i = 0; i < 2; ++i) {
    const std::string response = core.Execute("TOPK w 100 window");
    EXPECT_EQ(response.substr(0, response.rfind("END")), expected) << "query " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hk
