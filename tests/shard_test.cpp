// Concurrency and determinism tests for the sharded pipeline (src/shard/):
// partition stability, merge semantics, producer/consumer stress with
// random burst sizes, shutdown while rings are still draining, and the
// determinism contract - same seed and shard count means bit-identical
// results across execution modes, burst shapes, and runs - and relaxed
// snapshots taken while the producer inserts (the TSan CI job runs this
// suite with full race detection).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "shard/merge.h"
#include "shard/partition.h"
#include "shard/sharded_topk.h"
#include "sketch/registry.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

SketchDefaults TestDefaults() {
  SketchDefaults d;
  d.memory_bytes = 50 * 1024;
  d.k = 50;
  d.key_kind = KeyKind::kSynthetic4B;
  d.seed = 3;
  return d;
}

std::vector<FlowId> ZipfPackets(uint64_t n, uint64_t seed) {
  ZipfTraceConfig config;
  config.num_packets = n;
  config.num_ranks = n / 8;
  config.skew = 1.1;
  config.seed = seed;
  return MakeZipfTrace(config).packets;
}

TEST(ShardPartitionTest, StableAndBalanced) {
  const ShardPartitioner partitioner(8);
  std::vector<uint64_t> load(8, 0);
  SplitMix64 sm(42);
  for (int i = 0; i < 100'000; ++i) {
    const FlowId id = sm.Next();
    const size_t shard = partitioner.ShardOf(id);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, partitioner.ShardOf(id));  // stable per flow
    ++load[shard];
  }
  for (const uint64_t l : load) {
    // 100k uniform keys over 8 shards: each shard within 10% of 12.5k.
    EXPECT_NEAR(static_cast<double>(l), 12'500.0, 1'250.0);
  }
}

TEST(ShardMergeTest, OrdersUnionAndTruncates) {
  const std::vector<std::vector<FlowCount>> per_shard = {
      {{7, 100}, {1, 5}},
      {},
      {{9, 100}, {2, 80}, {3, 5}},
  };
  const auto merged = MergeTopK(per_shard, 4);
  const std::vector<FlowCount> expected = {{7, 100}, {9, 100}, {2, 80}, {1, 5}};
  EXPECT_EQ(merged, expected);  // count desc, id asc on the tie, k-truncated
  EXPECT_EQ(MergeTopK({}, 10), std::vector<FlowCount>{});
}

TEST(ShardMergeTest, SumByIdCombinesOverlappingLists) {
  // The window-ring shape: per-epoch reports of one stream, so the same
  // flow id recurs across lists and its sliding estimate is the sum.
  const std::vector<std::vector<FlowCount>> per_epoch = {
      {{7, 100}, {2, 40}, {1, 5}},
      {},
      {{2, 70}, {7, 30}, {3, 60}},
  };
  const auto merged = MergeTopK(per_epoch, 3, MergeMode::kSumById);
  const std::vector<FlowCount> expected = {{7, 130}, {2, 110}, {3, 60}};
  EXPECT_EQ(merged, expected);
  // Regression pin for the documented kDisjoint contract: the fast path
  // fed overlapping lists emits duplicate ids instead of combining them.
  const auto disjoint = MergeTopK(per_epoch, 6, MergeMode::kDisjoint);
  size_t sevens = 0;
  for (const auto& fc : disjoint) {
    sevens += fc.id == 7 ? 1 : 0;
  }
  EXPECT_EQ(sevens, 2u);
  EXPECT_EQ(MergeTopK({}, 10, MergeMode::kSumById), std::vector<FlowCount>{});
}

bool ReportOrder(const FlowCount& a, const FlowCount& b) {
  return a.count != b.count ? a.count > b.count : a.id < b.id;
}

// The obvious merge: a std::map of sums (kSumById) or plain concatenation
// (kDisjoint), then a full sort and truncation to k.
std::vector<FlowCount> ReferenceMerge(const std::vector<std::vector<FlowCount>>& lists, size_t k,
                                      MergeMode mode) {
  std::vector<FlowCount> all;
  if (mode == MergeMode::kSumById) {
    std::map<FlowId, uint64_t> sums;
    for (const auto& list : lists) {
      for (const FlowCount& fc : list) {
        sums[fc.id] += fc.count;
      }
    }
    for (const auto& [id, count] : sums) {
      all.push_back({id, count});
    }
  } else {
    for (const auto& list : lists) {
      all.insert(all.end(), list.begin(), list.end());
    }
  }
  std::sort(all.begin(), all.end(), ReportOrder);
  if (all.size() > k) {
    all.resize(k);
  }
  return all;
}

// Random lists over a small id space, so ids recur across lists and within
// one list. The ids are spread over 64 bits, and residue 0 maps to id 0.
std::vector<std::vector<FlowCount>> RandomLists(SplitMix64& rng, bool equal_counts) {
  std::vector<std::vector<FlowCount>> lists(1 + rng.Next() % 9);
  const uint64_t id_space = 1 + rng.Next() % 64;
  for (auto& list : lists) {
    const size_t n = rng.Next() % 40;
    for (size_t i = 0; i < n; ++i) {
      const FlowId id = (rng.Next() % id_space) * 0x9e3779b97f4a7c15ULL;
      list.push_back({id, equal_counts ? 5 : rng.Next() % 100});
    }
  }
  return lists;
}

TEST(ShardMergeTest, SumByIdMatchesMapReference) {
  // Hand cases first: id 0 is an ordinary key, a repeat inside one list
  // sums, and all-equal sums fall back to id order.
  EXPECT_EQ(MergeTopK({{{0, 5}, {3, 5}}, {{0, 1}}}, 5, MergeMode::kSumById),
            (std::vector<FlowCount>{{0, 6}, {3, 5}}));
  EXPECT_EQ(MergeTopK({{{4, 2}, {4, 3}, {1, 4}}}, 5, MergeMode::kSumById),
            (std::vector<FlowCount>{{4, 5}, {1, 4}}));
  EXPECT_EQ(MergeTopK({{{9, 1}, {2, 1}}, {{5, 1}, {0, 1}}}, 3, MergeMode::kSumById),
            (std::vector<FlowCount>{{0, 1}, {2, 1}, {5, 1}}));

  SplitMix64 rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const auto lists = RandomLists(rng, trial % 4 == 0);
    const size_t distinct = ReferenceMerge(lists, SIZE_MAX, MergeMode::kSumById).size();
    for (const size_t k : {size_t{0}, size_t{1}, size_t{7}, distinct / 2, distinct,
                           distinct + 5}) {
      EXPECT_EQ(MergeTopK(lists, k, MergeMode::kSumById),
                ReferenceMerge(lists, k, MergeMode::kSumById))
          << "trial " << trial << " k=" << k;
    }
  }
}

TEST(ShardMergeTest, DisjointMatchesFullSortReference) {
  SplitMix64 rng(78);
  for (int trial = 0; trial < 300; ++trial) {
    const auto lists = RandomLists(rng, trial % 4 == 0);
    const size_t total = ReferenceMerge(lists, SIZE_MAX, MergeMode::kDisjoint).size();
    for (const size_t k : {size_t{0}, size_t{1}, size_t{7}, total / 2, total, total + 5}) {
      EXPECT_EQ(MergeTopK(lists, k), ReferenceMerge(lists, k, MergeMode::kDisjoint))
          << "trial " << trial << " k=" << k;
    }
  }
}

TEST(ShardedTopKTest, RejectsDegenerateSpecs) {
  EXPECT_THROW(MakeSketch("Sharded:n=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:n=2000"), std::invalid_argument);  // > kMaxShards
  EXPECT_THROW(MakeSketch("Sharded:inner=Sharded:n=2"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:threads=1,ring=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:threads=1,burst=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:n=2,inner=NotARealSketch"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:bogus=1"), std::invalid_argument);
  // Worker count is always the shard count; threads= is a 0/1 mode switch.
  EXPECT_THROW(MakeSketch("Sharded:threads=2"), std::invalid_argument);
  // Ring tuning without the threaded mode would be silently inert.
  EXPECT_THROW(MakeSketch("Sharded:ring=64"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:burst=16"), std::invalid_argument);
}

TEST(ShardedTopKTest, RoutesEveryFlowToItsOwningShard) {
  ShardedTopKOptions options;
  options.num_shards = 4;
  options.inner_spec = "SS:mem=64kb";
  auto algo = std::make_unique<ShardedTopK>(options, TestDefaults());
  const auto packets = ZipfPackets(20'000, 11);
  algo->InsertBatch(packets);
  // Each packet must be counted by exactly the shard the partitioner
  // names: per-shard totals add up to the stream, and a sampled flow is
  // visible only in its owning shard.
  uint64_t total = 0;
  for (size_t s = 0; s < algo->num_shards(); ++s) {
    for (const auto& fc : algo->shard(s).TopK(100'000)) {
      total += fc.count;
    }
  }
  EXPECT_EQ(total, packets.size());
  for (size_t i = 0; i < 50; ++i) {
    const FlowId id = packets[i * 97 % packets.size()];
    const size_t owner = algo->ShardOf(id);
    for (size_t s = 0; s < algo->num_shards(); ++s) {
      if (s != owner) {
        EXPECT_EQ(algo->shard(s).EstimateSize(id), 0u) << "flow " << id << " leaked to " << s;
      }
    }
  }
}

// --- determinism ----------------------------------------------------------

TEST(ShardedDeterminismTest, SingleShardThreadedEqualsSequentialInsertBatch) {
  const auto packets = ZipfPackets(100'000, 7);
  auto sequential = MakeSketch("HK-Minimum", TestDefaults());
  auto threaded = MakeSketch("Sharded:n=1,threads=1,inner=HK-Minimum", TestDefaults());
  sequential->InsertBatch(packets);
  threaded->InsertBatch(packets);
  threaded->Flush();
  EXPECT_EQ(sequential->TopK(50), threaded->TopK(50));
  for (FlowId id = 1; id <= 32; ++id) {
    EXPECT_EQ(sequential->EstimateSize(id), threaded->EstimateSize(id)) << id;
  }
}

TEST(ShardedDeterminismTest, ThreadedEqualsSynchronousAcrossBurstShapes) {
  const auto packets = ZipfPackets(120'000, 13);
  auto sync = MakeSketch("Sharded:n=4,inner=HK-Minimum", TestDefaults());
  auto threaded = MakeSketch("Sharded:n=4,threads=1,inner=HK-Minimum", TestDefaults());
  auto scalar = MakeSketch("Sharded:n=4,inner=HK-Minimum", TestDefaults());

  sync->InsertBatch(packets);

  // Threaded side: random burst sizes so ring drains interleave with
  // production arbitrarily.
  Rng rng(99);
  size_t pos = 0;
  while (pos < packets.size()) {
    const size_t burst = std::min<size_t>(1 + rng.NextBounded(1000), packets.size() - pos);
    threaded->InsertBatch(std::span<const FlowId>(packets.data() + pos, burst));
    pos += burst;
  }
  threaded->Flush();

  for (const FlowId id : packets) {
    scalar->Insert(id);
  }

  EXPECT_EQ(sync->TopK(50), threaded->TopK(50));
  EXPECT_EQ(sync->TopK(50), scalar->TopK(50));
}

TEST(ShardedDeterminismTest, RepeatedThreadedRunsAreIdentical) {
  const auto packets = ZipfPackets(80'000, 17);
  std::vector<FlowCount> first;
  for (int run = 0; run < 3; ++run) {
    auto algo = MakeSketch("Sharded:n=8,threads=1,inner=HK-Minimum", TestDefaults());
    algo->InsertBatch(packets);
    const auto top = algo->TopK(50);
    if (run == 0) {
      first = top;
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(top, first) << "run " << run << " diverged";
    }
  }
}

// --- producer/consumer stress ---------------------------------------------

TEST(ShardedStressTest, RandomBurstsCountExactlyWithExactInner) {
  // An exact inner (Space-Saving with ample capacity) turns the stress run
  // into a lossless accounting check: after Flush, the merged counts must
  // reproduce the oracle exactly, whatever the ring/burst interleaving.
  ShardedTopKOptions options;
  options.num_shards = 4;
  options.threaded = true;
  options.ring_capacity = 256;  // small ring: force back-pressure often
  options.drain_burst = 64;
  options.inner_spec = "SS:mem=256kb";
  auto algo = std::make_unique<ShardedTopK>(options, TestDefaults());

  ZipfTraceConfig config;
  config.num_packets = 300'000;
  config.num_ranks = 2'000;
  config.skew = 1.0;
  config.seed = 23;
  const auto packets = MakeZipfTrace(config).packets;
  Oracle oracle;
  for (const FlowId id : packets) {
    oracle.Add(id);
  }

  Rng rng(7);
  size_t pos = 0;
  while (pos < packets.size()) {
    const size_t burst = std::min<size_t>(1 + rng.NextBounded(2048), packets.size() - pos);
    if (burst == 1) {
      algo->Insert(packets[pos]);
    } else {
      algo->InsertBatch(std::span<const FlowId>(packets.data() + pos, burst));
    }
    pos += burst;
  }
  algo->Flush();

  for (const auto& truth : oracle.TopK(200)) {
    EXPECT_EQ(algo->EstimateSize(truth.id), truth.count) << "flow " << truth.id;
  }
}

TEST(ShardedStressTest, WeightedStreamThreadedMatchesSynchronous) {
  const auto ids = ZipfPackets(40'000, 29);
  std::vector<uint64_t> weights;
  weights.reserve(ids.size());
  Rng rng(31);
  for (size_t i = 0; i < ids.size(); ++i) {
    weights.push_back(rng.NextBounded(4));  // exercises weight-0 skipping too
  }
  auto sync = MakeSketch("Sharded:n=4,inner=HK-Minimum:cb=32", TestDefaults());
  auto threaded = MakeSketch("Sharded:n=4,threads=1,inner=HK-Minimum:cb=32", TestDefaults());
  sync->InsertBatch(ids, weights);
  threaded->InsertBatch(ids, weights);
  threaded->Flush();
  EXPECT_EQ(sync->TopK(50), threaded->TopK(50));
}

// A test double that counts applied packets into caller-owned storage, so
// the drain guarantee stays observable after the ShardedTopK is gone.
class CountingAlgorithm : public TopKAlgorithm {
 public:
  explicit CountingAlgorithm(uint64_t* applied) : applied_(applied) {}

  void Insert(FlowId) override { ++*applied_; }
  std::vector<FlowCount> TopK(size_t) const override { return {}; }
  uint64_t EstimateSize(FlowId) const override { return 0; }
  std::string name() const override { return "counting-test-double"; }
  size_t MemoryBytes() const override { return sizeof(*this); }

 private:
  uint64_t* applied_;  // written only by this shard's worker
};

TEST(ShardedStressTest, ShutdownWhileDrainingAppliesEverything) {
  // Destroy the instance the moment the producer is done: the rings are
  // still full of queued packets, and the destructor must drain them (not
  // drop them) before joining. Injected counting inners write into
  // storage that outlives the instance, so the guarantee is checked on
  // the rounds that really do race the drain.
  constexpr size_t kShards = 4;
  constexpr uint64_t kPackets = 50'000;
  for (int round = 0; round < 5; ++round) {
    uint64_t applied[kShards] = {};
    ShardedTopKOptions options;
    options.num_shards = kShards;
    options.threaded = true;
    options.ring_capacity = 128;  // small rings: the producer finishes well
    options.drain_burst = 32;     // ahead of the workers
    std::vector<std::unique_ptr<TopKAlgorithm>> inners;
    for (size_t s = 0; s < kShards; ++s) {
      inners.push_back(std::make_unique<CountingAlgorithm>(&applied[s]));
    }
    auto algo = std::make_unique<ShardedTopK>(options, std::move(inners));
    SplitMix64 sm(1000 + round);
    for (uint64_t i = 0; i < kPackets; ++i) {
      algo->Insert(sm.Next());
    }
    algo.reset();  // no Flush: the destructor races the drain
    uint64_t total = 0;
    for (const uint64_t a : applied) {
      total += a;
    }
    EXPECT_EQ(total, kPackets) << "round " << round << " lost packets on shutdown";
  }
}

TEST(ShardedStressTest, FlushFromProducerMakesAllInsertsVisible) {
  auto algo = MakeSketch("Sharded:n=8,threads=1,ring=64,inner=SS:mem=128kb", TestDefaults());
  for (int i = 0; i < 5'000; ++i) {
    algo->Insert(42);
    algo->Insert(static_cast<FlowId>(100 + (i % 10)));
  }
  algo->Flush();
  EXPECT_EQ(algo->EstimateSize(42), 5'000u);
}

TEST(ShardedStressTest, StoreSideSentinelIdsAreFirstClassFlows) {
  // Flow ids 0 and ~0 collide with the store's empty/tombstone encodings
  // and live in side slots; they must survive tracking and raising on
  // whichever worker owns them.
  auto algo = MakeSketch("Sharded:n=2,threads=1,inner=HK-Minimum:cb=32", TestDefaults());
  std::vector<FlowId> ids;
  for (int i = 0; i < 3'000; ++i) {
    ids.push_back(FlowId{0});
    ids.push_back(~FlowId{0});
    ids.push_back(static_cast<FlowId>(1 + (i % 7)));
  }
  algo->InsertBatch(ids);
  algo->Flush();
  EXPECT_EQ(algo->EstimateSize(FlowId{0}), 3'000u);
  EXPECT_EQ(algo->EstimateSize(~FlowId{0}), 3'000u);
}

// --- relaxed snapshots (threaded mode) -------------------------------------

// True when `flows` is a well-formed report: at most k entries, ordered by
// (estimate desc, id asc), no flow twice.
bool WellFormed(const std::vector<FlowCount>& flows, size_t k) {
  std::set<FlowId> distinct;
  for (size_t i = 0; i < flows.size(); ++i) {
    if (!distinct.insert(flows[i].id).second) {
      return false;
    }
    if (i > 0 && (flows[i].count > flows[i - 1].count ||
                  (flows[i].count == flows[i - 1].count && flows[i].id < flows[i - 1].id))) {
      return false;
    }
  }
  return flows.size() <= k;
}

TEST(ShardRelaxedSnapshotTest, ThreadedRelaxedIsLabelledRelaxed) {
  auto algo = MakeSketch("Sharded:n=4,threads=1,inner=HK-Minimum", TestDefaults());
  algo->InsertBatch(ZipfPackets(50'000, 13));
  const QueryResult relaxed = algo->Snapshot({.k = 30, .consistency = ConsistencyLevel::kRelaxed});
  EXPECT_EQ(relaxed.consistency, ConsistencyLevel::kRelaxed);
  EXPECT_TRUE(WellFormed(relaxed.flows, 30));
  EXPECT_EQ(relaxed.stats.worker_threads, 4u);
  // Each of the 4 shards tracks its own candidates, so the union exceeds
  // any single report.
  EXPECT_GE(relaxed.stats.tracked_flows, relaxed.flows.size());
  // A kExact request on the same instance still drains and says so.
  EXPECT_EQ(algo->Snapshot({.k = 30}).consistency, ConsistencyLevel::kExact);
}

TEST(ShardRelaxedSnapshotTest, RelaxedAfterFlushEqualsExact) {
  auto algo = MakeSketch("Sharded:n=4,threads=1,inner=HK-Minimum", TestDefaults());
  algo->InsertBatch(ZipfPackets(50'000, 17));
  algo->Flush();
  // Quiesced: every worker's report covers its whole stream, so only the
  // label differs from the exact read.
  const QueryResult relaxed = algo->Snapshot({.k = 30, .consistency = ConsistencyLevel::kRelaxed});
  const QueryResult exact = algo->Snapshot({.k = 30});
  EXPECT_EQ(relaxed.consistency, ConsistencyLevel::kRelaxed);
  EXPECT_EQ(exact.consistency, ConsistencyLevel::kExact);
  EXPECT_EQ(relaxed.flows, exact.flows);
  EXPECT_EQ(relaxed.flows, algo->TopK(30));
  EXPECT_EQ(relaxed.stats.tracked_flows, exact.stats.tracked_flows);
  EXPECT_EQ(relaxed.stats.min_tracked, exact.stats.min_tracked);
  EXPECT_EQ(relaxed.stats.memory_bytes, algo->MemoryBytes());
  EXPECT_STREQ(relaxed.stats.simd_kernel, exact.stats.simd_kernel);
}

TEST(ShardRelaxedSnapshotTest, SynchronousModeStaysExact) {
  auto algo = MakeSketch("Sharded:n=4,inner=HK-Minimum", TestDefaults());
  algo->InsertBatch(ZipfPackets(50'000, 19));
  const QueryResult result = algo->Snapshot({.k = 30, .consistency = ConsistencyLevel::kRelaxed});
  EXPECT_EQ(result.consistency, ConsistencyLevel::kExact);
  EXPECT_EQ(result.flows, algo->TopK(30));
  EXPECT_EQ(result.stats.worker_threads, 0u);
}

TEST(ShardRelaxedSnapshotTest, SnapshotDuringInsertionNeverExceedsTruth) {
  // Collision-free fingerprints (fp=32) + cb=32 make Theorem 2 checkable
  // mid-stream: each shard's report is an exact read of a prefix of that
  // shard's stream, so every estimate is at most the flow's final count.
  constexpr size_t kK = 50;
  constexpr size_t kChunk = 1'000;
  const std::vector<FlowId> packets = ZipfPackets(150'000, 21);
  Oracle oracle;
  for (const FlowId id : packets) {
    oracle.Add(id);
  }
  auto algo = MakeSketch("Sharded:n=4,threads=1,ring=512,inner=HK-Minimum:fp=32,cb=32",
                         TestDefaults());

  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (size_t off = 0; off < packets.size(); off += kChunk) {
      const size_t n = std::min(kChunk, packets.size() - off);
      algo->InsertBatch(std::span<const FlowId>(packets.data() + off, n));
    }
    done.store(true, std::memory_order_release);
  });
  size_t snapshots = 0;
  while (!done.load(std::memory_order_acquire)) {
    const QueryResult result =
        algo->Snapshot({.k = kK, .consistency = ConsistencyLevel::kRelaxed});
    ++snapshots;
    EXPECT_EQ(result.consistency, ConsistencyLevel::kRelaxed);
    EXPECT_TRUE(WellFormed(result.flows, kK));
    for (const FlowCount& fc : result.flows) {
      EXPECT_LE(fc.count, oracle.Count(fc.id)) << "flow " << fc.id << " above truth mid-stream";
    }
  }
  producer.join();
  algo->Flush();
  EXPECT_GT(snapshots, 0u);

  const QueryResult exact = algo->Snapshot({.k = kK});
  for (const FlowCount& fc : exact.flows) {
    EXPECT_LE(fc.count, oracle.Count(fc.id)) << fc.id;
  }
  EXPECT_EQ(algo->Snapshot({.k = kK, .consistency = ConsistencyLevel::kRelaxed}).flows,
            exact.flows);
}

// Exact per-flow counts, applied slowly: each InsertBatch sleeps first, so
// a ring stays backed up long enough to observe a snapshot that did not
// wait for it.
class SlowExactAlgorithm : public TopKAlgorithm {
 public:
  void Insert(FlowId id) override { ++counts_[id]; }
  void InsertBatch(std::span<const FlowId> ids) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (const FlowId id : ids) {
      Insert(id);
    }
  }
  std::vector<FlowCount> TopK(size_t k) const override {
    std::vector<FlowCount> all;
    for (const auto& [id, count] : counts_) {
      all.push_back({id, count});
    }
    return MergeTopK({all}, k);
  }
  uint64_t EstimateSize(FlowId id) const override {
    const auto it = counts_.find(id);
    return it == counts_.end() ? 0 : it->second;
  }
  std::string name() const override { return "slow-exact-test-double"; }
  size_t MemoryBytes() const override { return sizeof(*this); }

 private:
  std::map<FlowId, uint64_t> counts_;  // touched only by the shard's worker
};

TEST(ShardRelaxedSnapshotTest, RelaxedDoesNotWaitForTheDrain) {
  // One heavy flow, 4096 packets, 16-packet bursts at >= 1 ms each: the
  // worker needs >= 256 ms to drain. A relaxed snapshot taken right after
  // the enqueue answers at the worker's next burst boundary, so it sees
  // only a prefix; an exact one would have waited for all of it.
  constexpr uint64_t kPackets = 4'096;
  constexpr FlowId kHeavy = 7;
  ShardedTopKOptions options;
  options.threaded = true;
  options.ring_capacity = 2 * kPackets;  // the producer never blocks
  options.drain_burst = 16;
  std::vector<std::unique_ptr<TopKAlgorithm>> inners;
  inners.push_back(std::make_unique<SlowExactAlgorithm>());
  ShardedTopK algo(options, std::move(inners));
  algo.InsertBatch(std::vector<FlowId>(kPackets, kHeavy));

  const QueryResult relaxed = algo.Snapshot({.k = 1, .consistency = ConsistencyLevel::kRelaxed});
  EXPECT_EQ(relaxed.consistency, ConsistencyLevel::kRelaxed);
  const uint64_t mid = relaxed.flows.empty() ? 0 : relaxed.flows[0].count;
  EXPECT_LT(mid, kPackets) << "the relaxed snapshot waited for the ring to drain";

  algo.Flush();
  const QueryResult after = algo.Snapshot({.k = 1, .consistency = ConsistencyLevel::kRelaxed});
  ASSERT_EQ(after.flows.size(), 1u);
  EXPECT_EQ(after.flows[0], (FlowCount{kHeavy, kPackets}));
}

}  // namespace
}  // namespace hk
