#include "ovs/pipeline.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/burst_ring.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "trace/generators.h"

namespace hk {

PipelineResult RunPipelines(const std::vector<RawPacket>& packets, const AlgorithmFactory& make,
                            const PipelineConfig& config) {
  // Each pipeline needs a datapath thread plus its measurement threads;
  // oversubscribing a small host with busy threads only measures the
  // scheduler, so scale down to the hardware (the paper's testbed runs 4
  // pipelines on 24 threads). Pipeline 0's algorithm is built first so its
  // own worker-thread count (threaded sharded consumers) feeds the clamp -
  // every pipeline runs the same spec, so one sample is representative.
  TopKAlgorithm* first = make ? make(0) : nullptr;
  const size_t threads_per_pipeline = 2 + (first != nullptr ? first->WorkerThreads() : 0);
  const size_t hw =
      std::max<size_t>(std::thread::hardware_concurrency() / threads_per_pipeline, 1);
  const size_t n = std::max<size_t>(std::min(config.num_pipelines, hw), 1);
  // Each ring slot carries one datapath burst of flow ids; ring_capacity
  // ids in flight make ring_capacity / kBurst slots, at least two.
  constexpr size_t kBurst = 256;
  const size_t slots = std::max<size_t>(config.ring_capacity / kBurst, 2);
  std::vector<std::unique_ptr<BurstRing<std::vector<FlowId>>>> rings;
  std::vector<std::unique_ptr<SimulatedDatapath>> datapaths;
  std::vector<TopKAlgorithm*> algorithms;
  std::vector<uint64_t> applied(n, 0);
  rings.reserve(n);
  datapaths.reserve(n);
  algorithms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rings.push_back(std::make_unique<BurstRing<std::vector<FlowId>>>(
        slots, slots / 2, [](std::vector<FlowId>& ids) { ids.reserve(kBurst); }));
    datapaths.push_back(std::make_unique<SimulatedDatapath>(config.cache_slots));
    algorithms.push_back(i == 0 ? first : (make ? make(i) : nullptr));
  }

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      SimulatedDatapath& dp = *datapaths[i];
      BurstRing<std::vector<FlowId>>& ring = *rings[i];
      // Parse + cache-lookup a burst at a time straight into a ring slot;
      // a full ring puts the datapath to sleep (the measurement consumer
      // back-pressures it) until half of it has drained.
      for (size_t base = 0; base < packets.size(); base += kBurst) {
        const size_t m = std::min(kBurst, packets.size() - base);
        std::vector<FlowId>* ids = ring.AcquireFree();  // never closed
        ids->resize(m);
        dp.ProcessBatch(packets.data() + base, m, ids->data());
        ring.Publish();
      }
      ring.Finish();
    });
    threads.emplace_back([&, i] {
      BurstRing<std::vector<FlowId>>& ring = *rings[i];
      TopKAlgorithm* algo = algorithms[i];
      // One InsertBatch per slot lets the measurement algorithm amortize
      // hashing and prefetch its buckets while the datapath keeps filling
      // the ring.
      while (const std::vector<FlowId>* ids = ring.AcquireFull()) {
        if (algo != nullptr) {
          algo->InsertBatch(*ids);
        }
        applied[i] += ids->size();
        ring.Release();
      }
      if (algo != nullptr) {
        // A concurrent consumer (threaded ShardedTopK) may still hold
        // queued packets in its shard rings; wait for them inside the
        // timed region so throughput covers every applied packet.
        algo->Flush();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  PipelineResult result;
  result.seconds = timer.ElapsedSeconds();
  for (const uint64_t count : applied) {
    result.packets += count;
  }
  result.applied = std::move(applied);
  result.mps = Mps(result.packets, result.seconds);
  result.pipelines = n;
  if (config.snapshot_k > 0) {
    result.reports.reserve(n);
    for (TopKAlgorithm* algo : algorithms) {
      if (algo != nullptr) {
        result.reports.push_back(algo->Snapshot({.k = config.snapshot_k}));
      }
    }
  }
  return result;
}

std::vector<RawPacket> MakeWirePackets(uint64_t num_packets, uint64_t num_ranks, double skew,
                                       uint64_t seed) {
  ZipfDistribution dist(num_ranks, skew);
  Rng rng(seed ^ 0x0f5eedULL);

  // Materialize a 5-tuple per rank once, then sample packets i.i.d.
  std::vector<FiveTuple> tuples(num_ranks);
  SplitMix64 sm(seed ^ 0x7ab1e5ULL);
  for (auto& t : tuples) {
    const uint64_t a = sm.Next();
    const uint64_t b = sm.Next();
    t.src_ip = static_cast<uint32_t>(a);
    t.dst_ip = static_cast<uint32_t>(a >> 32);
    t.src_port = static_cast<uint16_t>(b);
    t.dst_port = static_cast<uint16_t>(b >> 16);
    t.proto = (b >> 32) % 2 == 0 ? 6 : 17;
  }

  std::vector<RawPacket> packets;
  packets.reserve(num_packets);
  for (uint64_t i = 0; i < num_packets; ++i) {
    packets.push_back(PackHeader(tuples[dist.Sample(rng)]));
  }
  return packets;
}

}  // namespace hk
