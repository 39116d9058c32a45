// hk_serve streaming-ingest throughput (google-benchmark): what the
// always-on daemon's read path costs relative to the batch slurp path, in
// millions of packets per second.
//
//   serve/slurp                 PcapReader::Open baseline - the whole file
//                               in memory, the fastest possible walk
//   serve/stream                PcapReader::OpenStream over a file
//                               ByteSource - the daemon's incremental
//                               bounded-buffer mode
//   serve/checkpoint/<spec>     Flush + SaveState + manifest encode of a
//                               loaded sketch - the periodic cost a
//                               checkpoint interval pays
//
// The capture comes from HK_BENCH_PCAP when set (CI points this at the
// committed fixture); otherwise a campus-like capture of HK_BENCH_SCALE
// packets (default 1M) is synthesized to a scratch file. CI uploads
// BENCH_micro_serve_ingest.json; check_bench_regression.py --serve holds
// a soft gate on the stream/slurp ratio - streaming is allowed to cost a
// little, not multiples.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ingest/byte_source.h"
#include "ingest/capture_synth.h"
#include "ingest/pcap_reader.h"
#include "serve/checkpoint.h"
#include "sketch/registry.h"
#include "trace/generators.h"

namespace {

using namespace hk;

const std::string& CapturePath() {
  static const std::string path = [] {
    if (const char* env = std::getenv("HK_BENCH_PCAP"); env != nullptr) {
      return std::string(env);
    }
    const char* scale = std::getenv("HK_BENCH_SCALE");
    const uint64_t packets = scale != nullptr ? std::strtoull(scale, nullptr, 10) : 1'000'000;
    std::string out = "micro_serve_ingest.scratch.pcap";
    const Trace trace =
        SynthesizeCapture(CampusConfig(packets, /*seed=*/13), out, CaptureSynthOptions{});
    if (trace.num_packets() == 0) {
      std::fprintf(stderr, "failed to synthesize %s\n", out.c_str());
      std::exit(1);
    }
    return out;
  }();
  return path;
}

uint64_t WalkAll(PcapReader& reader, FlowId* sink) {
  PacketRecord record;
  uint64_t packets = 0;
  while (reader.Next(&record)) {
    *sink ^= record.id;
    ++packets;
  }
  return packets;
}

void BM_Slurp(benchmark::State& state) {
  uint64_t packets = 0;
  FlowId sink = 0;
  for (auto _ : state) {
    PcapReader reader(PcapKeyPolicy::kFiveTuple);
    if (!reader.Open(CapturePath())) {
      state.SkipWithError(reader.error().c_str());
      return;
    }
    packets += WalkAll(reader, &sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(packets));
}

void BM_Stream(benchmark::State& state) {
  uint64_t packets = 0;
  FlowId sink = 0;
  for (auto _ : state) {
    PcapReader reader(PcapKeyPolicy::kFiveTuple);
    if (!reader.OpenStream(MakeFileByteSource(CapturePath()))) {
      state.SkipWithError(reader.error().c_str());
      return;
    }
    packets += WalkAll(reader, &sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(packets));
}

void BM_Checkpoint(benchmark::State& state, const std::string& spec) {
  SketchDefaults defaults;
  defaults.memory_bytes = 1024 * 1024;
  defaults.k = 100;
  defaults.key_kind = KeyKind::kFiveTuple13B;
  defaults.seed = 1;
  auto algo = MakeSketch(spec, defaults);
  {
    PcapReader reader(PcapKeyPolicy::kFiveTuple);
    if (!reader.Open(CapturePath())) {
      state.SkipWithError(reader.error().c_str());
      return;
    }
    PacketRecord record;
    std::vector<FlowId> ids;
    ids.reserve(4096);
    while (reader.Next(&record)) {
      ids.push_back(record.id);
      if (ids.size() == ids.capacity()) {
        algo->InsertBatch(ids);
        ids.clear();
      }
    }
    algo->InsertBatch(ids);
  }
  uint64_t bytes = 0;
  for (auto _ : state) {
    CheckpointManifest manifest;
    CheckpointInstance entry;
    entry.name = "bench";
    entry.spec = spec;
    algo->Flush();
    if (!algo->SaveState(&entry.state)) {
      state.SkipWithError("SaveState unsupported");
      return;
    }
    manifest.instances.push_back(std::move(entry));
    const std::vector<uint8_t> encoded = EncodeCheckpoint(manifest);
    benchmark::DoNotOptimize(encoded.data());
    bytes += encoded.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("serve/slurp", BM_Slurp)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("serve/stream", BM_Stream)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("serve/checkpoint/HK-Minimum",
                               [](benchmark::State& state) { BM_Checkpoint(state, "HK-Minimum"); })
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
