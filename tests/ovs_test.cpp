#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/burst_ring.h"
#include "ovs/datapath.h"
#include "ovs/pipeline.h"
#include "sketch/registry.h"
#include "sketch/space_saving.h"
#include "sketch/topk_algorithm.h"

namespace hk {
namespace {

using namespace std::chrono_literals;

// Polls `flag` until it reads true or `limit` passes.
bool BecomesTrue(const std::atomic<bool>& flag, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(BurstRingTest, FifoOrderAcrossWrapAround) {
  BurstRing<int> ring(4, 2);
  EXPECT_THROW(BurstRing<int>(1, 1), std::invalid_argument);
  EXPECT_THROW(BurstRing<int>(4, 0), std::invalid_argument);
  EXPECT_THROW(BurstRing<int>(4, 5), std::invalid_argument);
  int next_in = 0;
  int next_out = 0;
  // Uneven fill/drain rounds walk the counters around the slots many times.
  for (int round = 0; round < 50; ++round) {
    const int fill = 1 + round % 4;
    for (int i = 0; i < fill; ++i) {
      int* slot = ring.AcquireFree();
      ASSERT_NE(slot, nullptr);
      *slot = next_in++;
      EXPECT_EQ(ring.Publish(), static_cast<size_t>(i + 1));
    }
    for (int i = 0; i < fill; ++i) {
      const int* slot = ring.AcquireFull();
      ASSERT_NE(slot, nullptr);
      EXPECT_EQ(*slot, next_out++);
      ring.Release();
    }
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(BurstRingTest, FullProducerSleepsUntilRefilled) {
  // refill 2 of 4 (half drained), then refill 1 (the first free slot).
  for (const size_t refill : {size_t{2}, size_t{1}}) {
    BurstRing<int> ring(4, refill);
    for (int i = 0; i < 4; ++i) {
      *ring.AcquireFree() = i;
      ring.Publish();
    }
    std::atomic<bool> acquired{false};
    std::thread producer([&] {
      int* slot = ring.AcquireFree();  // full: sleeps
      EXPECT_NE(slot, nullptr);
      acquired.store(true, std::memory_order_release);
    });
    EXPECT_FALSE(BecomesTrue(acquired, 50ms)) << "a full ring handed out a slot";
    for (size_t freed = 1; freed < refill; ++freed) {
      ring.AcquireFull();
      ring.Release();
      EXPECT_FALSE(BecomesTrue(acquired, 50ms)) << "woke at " << freed << " free of " << refill;
    }
    ring.AcquireFull();
    ring.Release();
    EXPECT_TRUE(BecomesTrue(acquired, 10s)) << "slept through the wake at " << refill << " free";
    producer.join();
  }
}

TEST(BurstRingTest, ReleaseWakesAFullProducerAndADrainWaiterAlike) {
  // Both sleep on the free side at once; each Release must reach the one
  // it concerns, whichever the scheduler queued first.
  BurstRing<int> ring(2, 1);
  for (int i = 0; i < 2; ++i) {
    ring.AcquireFree();
    ring.Publish();
  }
  std::atomic<bool> drained{false};
  std::atomic<bool> acquired{false};
  std::thread drain_waiter([&] {
    ring.WaitDrained();
    drained.store(true, std::memory_order_release);
  });
  std::thread producer([&] {
    EXPECT_NE(ring.AcquireFree(), nullptr);
    acquired.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);  // let both fall asleep
  ring.AcquireFull();
  ring.Release();
  EXPECT_TRUE(BecomesTrue(acquired, 10s)) << "the free slot's wake went to the drain waiter";
  EXPECT_FALSE(drained.load(std::memory_order_acquire));
  ring.AcquireFull();
  ring.Release();
  EXPECT_TRUE(BecomesTrue(drained, 10s));
  ring.Close();  // a sleeper a lost wake left behind still gets to exit
  producer.join();
  drain_waiter.join();
}

TEST(BurstRingTest, CloseWakesABlockedProducer) {
  BurstRing<int> ring(2, 1);
  for (int i = 0; i < 2; ++i) {
    ring.AcquireFree();
    ring.Publish();
  }
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_EQ(ring.AcquireFree(), nullptr);  // woken by Close, refused a slot
    returned.store(true, std::memory_order_release);
  });
  EXPECT_FALSE(BecomesTrue(returned, 20ms));
  ring.Close();
  EXPECT_TRUE(BecomesTrue(returned, 10s));
  producer.join();
  EXPECT_EQ(ring.AcquireFree(), nullptr);
}

TEST(BurstRingTest, FinishDrainsThenReturnsNull) {
  BurstRing<int> ring(4, 2);
  for (int i = 0; i < 3; ++i) {
    *ring.AcquireFree() = 10 + i;
    ring.Publish();
  }
  ring.Finish();
  // Finish ends the stream, not the queue: every published slot comes out.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(ring.Done());
    const int* slot = ring.AcquireFull();
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(*slot, 10 + i);
    ring.Release();
  }
  EXPECT_TRUE(ring.Done());
  EXPECT_EQ(ring.AcquireFull(), nullptr);
  EXPECT_EQ(ring.AcquireFull(), nullptr);  // for good, without blocking

  // A consumer already asleep on the empty ring is woken by Finish.
  BurstRing<int> idle(2, 1);
  std::thread consumer([&] { EXPECT_EQ(idle.AcquireFull(), nullptr); });
  std::this_thread::sleep_for(10ms);
  idle.Finish();
  consumer.join();
  EXPECT_TRUE(idle.Done());
}

TEST(BurstRingTest, WaitDrainedSeesTheConsumersWork) {
  BurstRing<uint64_t> ring(4, 2);
  ring.WaitDrained();  // nothing published: returns at once
  uint64_t applied = 0;  // written by the consumer, read after WaitDrained
  std::thread consumer([&] {
    while (const uint64_t* slot = ring.AcquireFull()) {
      std::this_thread::sleep_for(2ms);  // a slow consumer
      applied += *slot;
      ring.Release();
    }
  });
  for (uint64_t i = 1; i <= 10; ++i) {
    *ring.AcquireFree() = i;
    ring.Publish();
  }
  ring.WaitDrained();
  EXPECT_EQ(applied, 55u);
  ring.Finish();
  consumer.join();
}

TEST(BurstRingTest, WakeReturnsAnIdleConsumerWithoutASlot) {
  BurstRing<int> ring(2, 1);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    EXPECT_EQ(ring.AcquireFull(), nullptr);
    EXPECT_FALSE(ring.Done());
    returned.store(true, std::memory_order_release);
  });
  EXPECT_FALSE(BecomesTrue(returned, 20ms)) << "an empty ring returned without a wake";
  ring.Wake();
  EXPECT_TRUE(BecomesTrue(returned, 10s));
  consumer.join();
  // A wake posted before the wait is not lost, and a waiting slot wins.
  ring.Wake();
  EXPECT_EQ(ring.AcquireFull(), nullptr);
  *ring.AcquireFree() = 5;
  ring.Publish();
  ring.Wake();
  const int* slot = ring.AcquireFull();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(*slot, 5);
  ring.Release();
}

TEST(BurstRingTest, TwoThreadStressPreservesEverything) {
  // 2M items in bursts of 1..97 over a 4-slot ring, so both sides sleep
  // and wake often. The consumer checks order and totals.
  constexpr uint64_t kN = 2'000'000;
  BurstRing<std::vector<uint64_t>> ring(4, 2);
  uint64_t received = 0;
  uint64_t sum = 0;
  bool order_ok = true;
  std::thread consumer([&] {
    uint64_t expected_next = 1;
    while (const std::vector<uint64_t>* burst = ring.AcquireFull()) {
      for (const uint64_t v : *burst) {
        order_ok &= v == expected_next++;
        sum += v;
      }
      received += burst->size();
      ring.Release();
    }
  });
  uint64_t next = 1;
  for (uint64_t burst = 0; next <= kN; ++burst) {
    std::vector<uint64_t>* slot = ring.AcquireFree();
    slot->clear();
    for (uint64_t i = 0; i < 1 + burst % 97 && next <= kN; ++i) {
      slot->push_back(next++);
    }
    ring.Publish();
  }
  ring.Finish();
  consumer.join();
  EXPECT_EQ(received, kN);
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(sum, kN * (kN + 1) / 2);
}

TEST(DatapathTest, HeaderPackParseRoundTrip) {
  const FiveTuple t{0x0a010203, 0xc0a80001, 5353, 443, 17};
  EXPECT_EQ(ParseHeader(PackHeader(t)), t);
}

TEST(DatapathTest, CacheHitsAfterFirstPacket) {
  SimulatedDatapath dp(1024);
  const FiveTuple t{1, 2, 3, 4, 6};
  const RawPacket p = PackHeader(t);
  const FlowId first = dp.Process(p);
  EXPECT_EQ(dp.cache_misses(), 1u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dp.Process(p), first);
  }
  EXPECT_EQ(dp.cache_hits(), 10u);
  EXPECT_EQ(dp.cache_misses(), 1u);
}

TEST(DatapathTest, ForwardingIsDeterministicPerFlow) {
  SimulatedDatapath dp;
  const RawPacket p = PackHeader({9, 8, 7, 6, 6});
  for (int i = 0; i < 20; ++i) {
    dp.Process(p);
  }
  // All packets of one flow leave by exactly one port.
  int ports_used = 0;
  for (size_t port = 0; port < SimulatedDatapath::kPorts; ++port) {
    if (dp.forwarded(port) > 0) {
      ++ports_used;
      EXPECT_EQ(dp.forwarded(port), 20u);
    }
  }
  EXPECT_EQ(ports_used, 1);
}

TEST(PipelineTest, AllPacketsFlowThrough) {
  const auto packets = MakeWirePackets(20000, 2000, 1.0, 3);
  PipelineConfig config;
  config.num_pipelines = 2;
  const auto result = RunPipelines(packets, nullptr, config);
  // The pipeline count is clamped to the hardware; every used pipeline must
  // carry the full packet stream.
  EXPECT_GE(result.pipelines, 1u);
  EXPECT_LE(result.pipelines, 2u);
  EXPECT_EQ(result.packets, result.pipelines * 20000);
  EXPECT_GT(result.mps, 0.0);
}

// Counts the packets a pipeline's consumer applies to it.
class CountingAlgorithm : public TopKAlgorithm {
 public:
  void Insert(FlowId) override { ++applied_; }
  std::vector<FlowCount> TopK(size_t) const override { return {}; }
  uint64_t EstimateSize(FlowId) const override { return 0; }
  std::string name() const override { return "counting-test-double"; }
  size_t MemoryBytes() const override { return sizeof(*this); }
  uint64_t applied() const { return applied_; }

 private:
  uint64_t applied_ = 0;
};

TEST(PipelineTest, EveryPipelineAppliesEveryPacket) {
  // 1000 packets is not a multiple of the 256-id burst, so the last slot
  // of every pipeline is a partial one.
  const auto packets = MakeWirePackets(1000, 100, 1.0, 5);
  PipelineConfig config;
  config.num_pipelines = 4;
  config.ring_capacity = 512;  // two slots: the datapath often waits
  std::vector<CountingAlgorithm> counters(config.num_pipelines);
  const auto result = RunPipelines(packets, [&](size_t i) { return &counters[i]; }, config);
  ASSERT_EQ(result.applied.size(), result.pipelines);
  for (size_t i = 0; i < result.pipelines; ++i) {
    EXPECT_EQ(result.applied[i], packets.size()) << "pipeline " << i;
    EXPECT_EQ(counters[i].applied(), packets.size()) << "pipeline " << i;
  }
  EXPECT_EQ(result.packets, result.pipelines * packets.size());
}

TEST(PipelineTest, AlgorithmConsumerSeesEveryPacket) {
  // A Space-Saving consumer with ample capacity counts exactly.
  const auto packets = MakeWirePackets(10000, 50, 1.0, 7);
  PipelineConfig config;
  config.num_pipelines = 1;
  SpaceSaving ss(1000, 13);
  SpaceSaving* ss_ptr = &ss;
  const auto result = RunPipelines(packets, [&](size_t) { return &ss; }, config);
  EXPECT_EQ(result.packets, 10000u);
  uint64_t counted = 0;
  for (const auto& fc : ss_ptr->TopK(1000)) {
    counted += fc.count;
  }
  EXPECT_EQ(counted, 10000u);
}

TEST(PipelineTest, SnapshotReportsCollectedPerPipeline) {
  // snapshot_k turns the run into measurement + report: one kExact
  // QueryResult per measuring pipeline, taken off the clock after the
  // consumers Flush()ed. A threaded Sharded consumer exercises the
  // quiesce path end to end (producer -> ring -> scatter -> worker).
  const auto packets = MakeWirePackets(20000, 500, 1.1, 11);
  SketchDefaults defaults;
  defaults.memory_bytes = 64 * 1024;
  defaults.k = 50;
  defaults.key_kind = KeyKind::kFiveTuple13B;
  defaults.seed = 5;
  auto algo = MakeSketch("Sharded:n=2,threads=1,inner=HK-Minimum", defaults);
  PipelineConfig config;
  config.num_pipelines = 1;
  config.snapshot_k = 10;
  const auto result = RunPipelines(packets, [&](size_t) { return algo.get(); }, config);
  EXPECT_EQ(result.packets, 20000u);
  ASSERT_EQ(result.reports.size(), result.pipelines);
  const QueryResult& report = result.reports.front();
  EXPECT_EQ(report.consistency, ConsistencyLevel::kExact);
  EXPECT_LE(report.flows.size(), 10u);
  ASSERT_FALSE(report.flows.empty());
  EXPECT_EQ(report.flows, algo->TopK(10));
  EXPECT_EQ(report.stats.worker_threads, 2u);
  EXPECT_EQ(report.stats.memory_bytes, algo->MemoryBytes());

  // The plain-OVS baseline (no algorithm) has nothing to report.
  const auto baseline = RunPipelines(packets, nullptr, config);
  EXPECT_TRUE(baseline.reports.empty());
}

TEST(PipelineTest, WirePacketsFollowZipf) {
  const auto packets = MakeWirePackets(50000, 1000, 1.2, 9);
  ASSERT_EQ(packets.size(), 50000u);
  // Count the most frequent parsed flow; with skew 1.2 it must dominate.
  std::unordered_map<FlowId, uint64_t> counts;
  for (const auto& p : packets) {
    ++counts[ParseHeader(p).Id()];
  }
  uint64_t max_count = 0;
  for (const auto& [id, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_GT(max_count, 5000u);
}

}  // namespace
}  // namespace hk
