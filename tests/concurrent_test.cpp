// Functional tests for the shared-slab concurrent mode (src/concurrent/):
// registry guards (Sharded and Concurrent refuse each other as inners),
// the threads=1 bit-equality guarantee against each inner discipline, the
// name() round-trip, the Snapshot() consistency contract, and concurrent
// store invariants under multi-threaded Inserters (the TSan CI job runs
// this suite with full race detection).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrent/concurrent_topk.h"
#include "sketch/registry.h"
#include "trace/generators.h"

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

// --- registry guards ------------------------------------------------------

TEST(ConcurrentTopKTest, RejectsDegenerateSpecs) {
  EXPECT_THROW(MakeSketch("Concurrent:threads=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Concurrent:threads=1000"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Concurrent:ring=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Concurrent:burst=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Concurrent:bogus=1"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Concurrent:inner=NotARealSketch"), std::invalid_argument);
  // Only HeavyKeeper pipelines can seed the shared slab.
  EXPECT_THROW(MakeSketch("Concurrent:inner=SS"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Concurrent:inner=CM"), std::invalid_argument);
}

TEST(ConcurrentTopKTest, FrontEndsRefuseEachOtherAsInners) {
  // Both directions, plus self-nesting: one front-end per stream.
  EXPECT_THROW(MakeSketch("Concurrent:inner=Sharded:n=2"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:n=2,inner=Concurrent:threads=2"),
               std::invalid_argument);
  EXPECT_THROW(MakeSketch("Concurrent:inner=Concurrent:threads=2"),
               std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:inner=Sharded:n=2"), std::invalid_argument);
  // Aliases resolve before the guard fires.
  EXPECT_THROW(MakeSketch("Concurrent:inner=Sharded"), std::invalid_argument);
}

TEST(ConcurrentTopKTest, RejectsSlabIncompatibleInnerFeatures) {
  // Section III-F expansion resizes the slab under writers.
  EXPECT_THROW(MakeSketch("Concurrent:inner=HK-Minimum:expand=64"),
               std::invalid_argument);
  // The geometric decay collapse consumes the coin stream differently.
  EXPECT_THROW(MakeSketch("Concurrent:inner=HK-Minimum:wdecay=collapsed"),
               std::invalid_argument);
}

TEST(ConcurrentTopKTest, RegisteredAndDefaultsToOneThread) {
  const auto names = RegisteredSketches();
  EXPECT_NE(std::find(names.begin(), names.end(), "Concurrent"), names.end());
  auto algo = MakeSketch("Concurrent", TestDefaults());
  EXPECT_EQ(algo->WorkerThreads(), 1u);  // bare spec must stay deterministic
  EXPECT_EQ(algo->name(), "Concurrent:threads=1,inner=HeavyKeeper-Minimum");
}

TEST(ConcurrentTopKTest, NameRoundTripsThroughRegistry) {
  const auto packets = ZipfPackets(30'000, 5);
  auto first = MakeSketch("Concurrent:threads=1,inner=HK-Parallel:d=4,b=1.05",
                          TestDefaults());
  auto second = MakeSketch(first->name(), TestDefaults());
  EXPECT_EQ(first->name(), second->name());
  first->InsertBatch(packets);
  second->InsertBatch(packets);
  EXPECT_EQ(first->TopK(50), second->TopK(50));
}

// --- threads=1 bit-equality ----------------------------------------------

class ConcurrentEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrentEquivalenceTest, OneThreadIsBitIdenticalToInner) {
  const std::string inner = GetParam();
  const auto packets = ZipfPackets(100'000, 7);
  auto sequential = MakeSketch(inner, TestDefaults());
  auto concurrent = MakeSketch("Concurrent:threads=1,inner=" + inner, TestDefaults());
  sequential->InsertBatch(packets);
  concurrent->InsertBatch(packets);
  concurrent->Flush();
  EXPECT_EQ(sequential->TopK(50), concurrent->TopK(50));
  EXPECT_EQ(sequential->MemoryBytes(), concurrent->MemoryBytes());
  for (FlowId id = 1; id <= 64; ++id) {
    EXPECT_EQ(sequential->EstimateSize(id), concurrent->EstimateSize(id)) << id;
  }
}

TEST_P(ConcurrentEquivalenceTest, OneThreadWeightedIsBitIdenticalToInner) {
  const std::string inner = GetParam();
  const auto ids = ZipfPackets(20'000, 29);
  std::vector<uint64_t> weights;
  weights.reserve(ids.size());
  Rng rng(31);
  for (size_t i = 0; i < ids.size(); ++i) {
    weights.push_back(rng.NextBounded(4));  // exercises weight-0 skipping too
  }
  auto sequential = MakeSketch(inner, TestDefaults());
  auto concurrent = MakeSketch("Concurrent:threads=1,inner=" + inner, TestDefaults());
  sequential->InsertBatch(ids, weights);
  concurrent->InsertBatch(ids, weights);
  concurrent->Flush();
  EXPECT_EQ(sequential->TopK(50), concurrent->TopK(50));
}

INSTANTIATE_TEST_SUITE_P(Disciplines, ConcurrentEquivalenceTest,
                         ::testing::Values("HK-Minimum", "HK-Parallel", "HK-Basic",
                                           "HK-Minimum:d=4,fp=12,cb=32"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ConcurrentDeterminismTest, RepeatedOneThreadRunsAreIdentical) {
  const auto packets = ZipfPackets(60'000, 17);
  std::vector<FlowCount> first;
  for (int run = 0; run < 3; ++run) {
    auto algo = MakeSketch("Concurrent:threads=1,inner=HK-Minimum", TestDefaults());
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

// --- Snapshot contract ----------------------------------------------------

TEST(SnapshotContractTest, DefaultSnapshotWrapsFlushedTopK) {
  // Synchronous algorithms inherit the base implementation: always exact,
  // flows identical to TopK(k), stats populated.
  for (const std::string spec : {"HK-Minimum", "SS", "CM"}) {
    auto algo = MakeSketch(spec, TestDefaults());
    algo->InsertBatch(ZipfPackets(20'000, 11));
    const QueryResult result = algo->Snapshot({.k = 20});
    EXPECT_EQ(result.consistency, ConsistencyLevel::kExact) << spec;
    EXPECT_EQ(result.flows, algo->TopK(20)) << spec;
    EXPECT_EQ(result.stats.tracked_flows, result.flows.size()) << spec;
    EXPECT_EQ(result.stats.min_tracked, result.flows.back().count) << spec;
    EXPECT_EQ(result.stats.worker_threads, 0u) << spec;
    EXPECT_EQ(result.stats.memory_bytes, algo->MemoryBytes()) << spec;
  }
}

TEST(SnapshotContractTest, ConcurrentExactSnapshotMatchesQuiescedTopK) {
  auto algo = MakeSketch("Concurrent:threads=2,inner=HK-Minimum", TestDefaults());
  algo->InsertBatch(ZipfPackets(80'000, 19));
  const QueryResult exact = algo->Snapshot({.k = 25});
  EXPECT_EQ(exact.consistency, ConsistencyLevel::kExact);
  EXPECT_EQ(exact.flows, algo->TopK(25));
  EXPECT_EQ(exact.stats.worker_threads, 2u);
  EXPECT_EQ(exact.stats.min_tracked, algo->TopK(TestDefaults().k).back().count);
  EXPECT_EQ(exact.stats.memory_bytes, algo->MemoryBytes());
}

TEST(SnapshotContractTest, SnapshotAfterFlushIsExactWhateverWasRequested) {
  auto algo = MakeSketch("Concurrent:threads=2,inner=HK-Minimum", TestDefaults());
  algo->InsertBatch(ZipfPackets(40'000, 23));
  algo->Flush();
  // Quiesced and no external inserters: the relaxed read must equal the
  // exact one (modulo the label, which stays honest about the request
  // path taken - the flows themselves cannot differ).
  const QueryResult relaxed =
      algo->Snapshot({.k = 25, .consistency = ConsistencyLevel::kRelaxed});
  const QueryResult exact = algo->Snapshot({.k = 25});
  EXPECT_EQ(relaxed.flows, exact.flows);
  EXPECT_EQ(relaxed.stats.tracked_flows, exact.stats.tracked_flows);
}

// --- multi-threaded sanity -------------------------------------------------

TEST(ConcurrentStressTest, RingFedThreadsCountEveryPacket) {
  // A single heavy flow: every discipline counts a monitored flow's packets
  // exactly (match -> gated increment never blocked for the sole tracked
  // flow), so the estimate must equal the packet count whatever the
  // worker interleaving - lost updates would show up as a shortfall.
  auto algo = MakeSketch("Concurrent:threads=4,ring=256,burst=64,inner=HK-Minimum:cb=32",
                         TestDefaults());
  constexpr uint64_t kPackets = 200'000;
  std::vector<FlowId> burst(1'000, FlowId{42});
  for (uint64_t sent = 0; sent < kPackets; sent += burst.size()) {
    algo->InsertBatch(burst);
  }
  algo->Flush();
  EXPECT_EQ(algo->EstimateSize(42), kPackets);
}

TEST(ConcurrentStressTest, ExternalInsertersSeeConsistentStore) {
  ConcurrentTopKOptions options;
  options.threads = 1;  // ring workers idle; Inserters bring the threads
  options.inner_spec = "HK-Minimum:cb=32";
  auto algo = std::make_unique<ConcurrentTopK>(options, TestDefaults());

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&algo, t] {
      ConcurrentTopK::Inserter inserter = algo->MakeInserter(static_cast<uint64_t>(t));
      const auto packets = ZipfPackets(kPerThread, 100 + static_cast<uint64_t>(t));
      for (const FlowId id : packets) {
        inserter.Insert(id);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  algo->Flush();

  // No duplicates, sorted by (count desc, id asc), bounded by k.
  const auto top = algo->TopK(TestDefaults().k);
  EXPECT_LE(top.size(), TestDefaults().k);
  EXPECT_FALSE(top.empty());
  std::set<FlowId> seen;
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(seen.insert(top[i].id).second) << "duplicate flow " << top[i].id;
    if (i > 0) {
      EXPECT_TRUE(top[i - 1].count > top[i].count ||
                  (top[i - 1].count == top[i].count && top[i - 1].id < top[i].id));
    }
  }
  // The tracked estimate is what EstimateSize reports for tracked flows.
  for (const auto& fc : top) {
    EXPECT_EQ(algo->EstimateSize(fc.id), fc.count);
  }
}

TEST(ConcurrentStressTest, ShutdownWhileDrainingIsClean) {
  for (int round = 0; round < 6; ++round) {
    auto algo = MakeSketch("Concurrent:threads=4,ring=128,burst=32,inner=HK-Minimum:cb=32",
                           TestDefaults());
    constexpr uint64_t kPackets = 50'000;
    std::vector<FlowId> burst(500, FlowId{7});
    for (uint64_t sent = 0; sent < kPackets; sent += burst.size()) {
      algo->InsertBatch(burst);
    }
    if (round % 2 == 0) {
      // Even rounds verify the drain guarantee through a quiesced read.
      EXPECT_EQ(algo->EstimateSize(7), kPackets) << "round " << round;
    }
    // Odd rounds destroy with full rings: the destructor must drain (not
    // drop) and the teardown must be race-free (TSan covers this suite).
    algo.reset();
  }
}

TEST(ConcurrentStressTest, StoreSideSentinelIdsAreFirstClassFlows) {
  // Flow ids 0 and ~0 collide with the store's empty/tombstone encodings
  // and live in side slots; they must survive tracking and raising.
  auto algo = MakeSketch("Concurrent:threads=2,inner=HK-Minimum:cb=32", TestDefaults());
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

}  // namespace
}  // namespace hk
