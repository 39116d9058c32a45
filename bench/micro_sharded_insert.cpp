// Sharded vs single-shard insertion throughput (google-benchmark).
//
// The shard layer's value proposition is multi-core scale-out: N workers
// each run the HeavyKeeper batch fast path on a disjoint key slice while
// the producer only hashes the partition and fills burst-ring slots. This
// bench streams a deep-tail Zipf workload through
//
//   sharded/insert/single      the unsharded inner, producer-thread only
//   sharded/insert/n=N         threaded ShardedTopK, N workers (N = 1..8)
//
// in bursts of kBurst, Flush()ing inside the timed region so every applied
// packet is paid for. The sketch is sized past LLC (HK_BENCH_SHARD_MB
// total, default 64) - the DRAM-bound regime where extra cores pay.
//
// The scaling gate tracked in CI (bench/check_bench_regression.py, soft
// for now): items_per_second at n=8 >= 3.5x n=1 on a machine with >= 8
// free cores. n=1 also quantifies the pure queueing overhead against
// `single`. CI uploads the JSON (BENCH_micro_sharded_insert.json).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sketch/registry.h"
#include "trace/generators.h"

namespace {

using namespace hk;

constexpr size_t kBurst = 4096;

size_t SketchMegabytes() {
  const char* env = std::getenv("HK_BENCH_SHARD_MB");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 64;
}

const std::vector<FlowId>& ZipfPackets() {
  static const std::vector<FlowId> packets = [] {
    ZipfTraceConfig config;
    const char* env = std::getenv("HK_BENCH_SCALE");
    config.num_packets = env != nullptr ? std::strtoull(env, nullptr, 10) : 4'000'000;
    config.num_ranks = config.num_packets / 2;  // deep tail: most flows are mice
    config.skew = 1.0;
    config.seed = 3;
    return MakeZipfTrace(config).packets;
  }();
  return packets;
}

std::unique_ptr<TopKAlgorithm> MakeContender(const std::string& spec) {
  SketchDefaults defaults;
  defaults.memory_bytes = SketchMegabytes() * 1024 * 1024;
  defaults.k = 100;
  defaults.key_kind = KeyKind::kSynthetic4B;
  defaults.seed = 1;
  return MakeSketch(spec, defaults);
}

// One iteration = the whole packet buffer, streamed in bursts and flushed;
// rings hold at most shards * ring_capacity packets, so without the flush
// a queued tail would ride for free.
void StreamAll(TopKAlgorithm& algo, benchmark::State& state) {
  const auto& packets = ZipfPackets();
  for (auto _ : state) {
    for (size_t base = 0; base < packets.size(); base += kBurst) {
      const size_t n = std::min(kBurst, packets.size() - base);
      algo.InsertBatch(std::span<const FlowId>(packets.data() + base, n));
    }
    algo.Flush();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(packets.size()));
}

void BM_SingleInsert(benchmark::State& state) {
  auto algo = MakeContender("HK-Minimum");
  StreamAll(*algo, state);
}

void BM_ShardedInsert(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  auto algo = MakeContender("Sharded:n=" + std::to_string(shards) +
                            ",threads=1,inner=HK-Minimum");
  StreamAll(*algo, state);
  state.counters["shards"] = static_cast<double>(shards);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("sharded/insert/single", BM_SingleInsert)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("sharded/insert/n", BM_ShardedInsert)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();  // workers run off-thread; wall time is the result
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
