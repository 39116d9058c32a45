// The Snapshot() consistency contract (sketch/topk_algorithm.h): the base
// implementation wraps Flush() + TopK() for every synchronous algorithm,
// and once a threaded front-end's stream is flushed a kRelaxed request
// returns the exact flows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

TEST(SnapshotContractTest, SnapshotAfterFlushIsExactWhateverWasRequested) {
  auto algo = MakeSketch("Sharded:n=2,threads=1,inner=HK-Minimum", TestDefaults());
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

}  // namespace
}  // namespace hk
