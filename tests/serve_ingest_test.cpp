// Two-stage serve ingest: a parse stage fills bursts into a fixed ring and
// an apply stage inserts them under the instance lock. These tests pin
// what the split must not change and what it must survive:
//   * equivalence - after drain, every instance saves exactly the state a
//     direct InsertBatch of the capture's ids (file order) produces, for
//     plain, windowed and threaded-sharded specs, unweighted and `bytes`,
//     at two burst sizes;
//   * consistent cuts - checkpoints taken while queries and ingest race
//     hold a state equal to a direct insert of exactly the recorded prefix;
//   * no starvation - back-to-back queries cannot stall ingest;
//   * shutdown - DROP returns while the parse stage sleeps on a full ring.
// Suite names start with ServeIngest so the TSan job's Ingest filter runs
// them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ingest/capture_synth.h"
#include "ingest/pcap_reader.h"
#include "serve/checkpoint.h"
#include "serve/serve_core.h"
#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

#ifndef HK_TEST_DATA_DIR
#define HK_TEST_DATA_DIR "tests/data"
#endif

std::string FixturePath(const char* file) { return std::string(HK_TEST_DATA_DIR) + "/" + file; }

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
}

// A capture's records in file order, as the ingest stages see them.
struct Capture {
  std::vector<FlowId> ids;
  std::vector<uint64_t> weights;  // wire lengths
};

Capture ReadCapture(const std::string& path, PcapKeyPolicy policy) {
  PcapReader reader(policy);
  EXPECT_TRUE(reader.Open(path)) << reader.error();
  Capture capture;
  PacketRecord record;
  while (reader.Next(&record)) {
    capture.ids.push_back(record.id);
    capture.weights.push_back(record.wire_len);
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  return capture;
}

SketchDefaults Defaults(PcapKeyPolicy policy, size_t memory_bytes) {
  SketchDefaults defaults;
  defaults.memory_bytes = memory_bytes;
  defaults.k = 32;
  defaults.key_kind = ToKeyKind(policy);
  defaults.seed = 17;
  return defaults;
}

// SaveState of `spec` after one InsertBatch of the first `prefix` records.
std::vector<uint8_t> DirectState(const std::string& spec, const SketchDefaults& defaults,
                                 const Capture& capture, bool weighted, size_t prefix) {
  auto algo = MakeSketch(spec, defaults);
  const std::span<const FlowId> ids(capture.ids.data(), prefix);
  if (weighted) {
    algo->InsertBatch(ids, std::span<const uint64_t>(capture.weights.data(), prefix));
  } else {
    algo->InsertBatch(ids);
  }
  algo->Flush();
  std::vector<uint8_t> state;
  EXPECT_TRUE(algo->SaveState(&state)) << spec;
  return state;
}

// The served instances as the last checkpoint recorded them.
CheckpointManifest Checkpointed(ServeCore& core) {
  std::string err;
  EXPECT_TRUE(core.WriteCheckpoint(&err)) << err;
  CheckpointManifest manifest;
  EXPECT_TRUE(LoadCheckpoint(core.options().checkpoint_path, &manifest, &err)) << err;
  return manifest;
}

const CheckpointInstance* Entry(const CheckpointManifest& manifest, const std::string& name) {
  for (const CheckpointInstance& entry : manifest.instances) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

struct EquivalenceCase {
  const char* label;
  const char* fixture;
  PcapKeyPolicy policy;
  const char* spec;
  bool weighted;
  size_t batch;
};

std::vector<EquivalenceCase> EquivalenceCases() {
  const std::pair<const char*, PcapKeyPolicy> sources[] = {
      {"fixture_campus.pcap", PcapKeyPolicy::kFiveTuple},
      {"fixture_caida.pcapng", PcapKeyPolicy::kAddrPair}};
  const std::pair<const char*, const char*> specs[] = {
      {"Minimum", "HK-Minimum"},
      {"Window", "Window:w=4,epoch=500,inner=HK-Minimum"},
      {"Sharded", "Sharded:n=2,threads=1,inner=HK-Minimum"}};
  std::vector<EquivalenceCase> cases;
  for (const auto& [fixture, policy] : sources) {
    for (const auto& [spec_label, spec] : specs) {
      for (const bool weighted : {false, true}) {
        for (const size_t batch : {size_t{64}, size_t{512}}) {
          cases.push_back({spec_label, fixture, policy, spec, weighted, batch});
        }
      }
    }
  }
  return cases;
}

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.fixture << " " << c.spec << (c.weighted ? " bytes" : "") << " batch=" << c.batch;
}

class ServeIngestEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ServeIngestEquivalence, DrainedStateMatchesDirectInsertBatch) {
  const EquivalenceCase& c = GetParam();
  const std::string path = FixturePath(c.fixture);
  const Capture capture = ReadCapture(path, c.policy);
  ASSERT_GT(capture.ids.size(), 0u);

  ServeOptions options;
  options.checkpoint_path = TempPath("serve_ingest_equivalence.ckpt");
  options.defaults = Defaults(c.policy, 32 * 1024);
  options.ingest_batch = c.batch;
  ServeCore core(options);
  std::string err;
  ASSERT_TRUE(core.Create("inst", c.spec, &err)) << err;
  SourceBinding binding;
  binding.source = path;
  binding.policy = c.policy;
  binding.byte_weighted = c.weighted;
  ASSERT_TRUE(core.Attach("inst", binding, &err)) << err;
  core.DrainIngest();
  ASSERT_EQ(core.PacketsApplied("inst"), capture.ids.size());

  const CheckpointManifest manifest = Checkpointed(core);
  const CheckpointInstance* entry = Entry(manifest, "inst");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->packets_applied, capture.ids.size());
  EXPECT_EQ(entry->state,
            DirectState(c.spec, options.defaults, capture, c.weighted, capture.ids.size()));
  std::remove(options.checkpoint_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ServeIngest, ServeIngestEquivalence, ::testing::ValuesIn(EquivalenceCases()),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      const EquivalenceCase& c = info.param;
      return std::string(c.policy == PcapKeyPolicy::kFiveTuple ? "Campus" : "Caida") + c.label +
             (c.weighted ? "Bytes" : "Packets") + "Batch" + std::to_string(c.batch);
    });

// Two query threads (TOPK, TOPK ... window, POINT, CHECKPOINT) race two
// ingesting instances. Every checkpoint must hold, per instance, exactly
// the state of a direct insert of the prefix it records as applied. The
// captures are the fixtures' shapes at ten times their length, so the
// queries overlap many bursts.
TEST(ServeIngestRace, QueriesAndCheckpointsSeeConsistentCuts) {
  const std::string campus_path = TempPath("serve_ingest_race_campus.pcap");
  const std::string caida_path = TempPath("serve_ingest_race_caida.pcapng");
  SynthesizeCapture(CampusConfig(40000, 31), campus_path, CaptureSynthOptions{});
  CaptureSynthOptions pcapng;
  pcapng.file.format = PcapFormat::kPcapNg;
  SynthesizeCapture(CaidaConfig(30000, 47), caida_path, pcapng);
  const Capture campus = ReadCapture(campus_path, PcapKeyPolicy::kFiveTuple);
  const Capture caida = ReadCapture(caida_path, PcapKeyPolicy::kAddrPair);
  const char* const kMinimum = "HK-Minimum";
  const char* const kWindow = "Window:w=4,epoch=500,inner=HK-Minimum";

  ServeOptions options;
  options.checkpoint_path = TempPath("serve_ingest_race.ckpt");
  // One key width for both instances: each checks against its own capture.
  options.defaults = Defaults(PcapKeyPolicy::kFiveTuple, 32 * 1024);
  options.ingest_batch = 64;  // many bursts: many interleavings
  ServeCore core(options);
  std::string err;
  ASSERT_TRUE(core.Create("hk", kMinimum, &err)) << err;
  ASSERT_TRUE(core.Create("win", kWindow, &err)) << err;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::thread topk([&] {
    while (!stop.load()) {
      for (const char* line : {"TOPK hk 10", "TOPK win 10 window", "TOPK win 10"}) {
        const std::string reply = core.Execute(line);
        EXPECT_EQ(reply.rfind("ERR", 0), std::string::npos) << line << ": " << reply;
        answered.fetch_add(1);
      }
    }
  });
  std::vector<std::pair<uint64_t, uint64_t>> cuts;  // (hk, win) offsets
  std::thread point_and_checkpoint([&] {
    char point[64];
    std::snprintf(point, sizeof(point), "POINT hk %llx",
                  static_cast<unsigned long long>(campus.ids[0]));
    std::string load_err;
    while (!stop.load()) {
      EXPECT_EQ(core.Execute(point).rfind("OK ", 0), 0u);
      const std::string reply = core.Execute("CHECKPOINT");
      ASSERT_EQ(reply.rfind("OK checkpoint", 0), 0u) << reply;
      CheckpointManifest manifest;
      ASSERT_TRUE(LoadCheckpoint(options.checkpoint_path, &manifest, &load_err)) << load_err;
      const CheckpointInstance* hk = Entry(manifest, "hk");
      const CheckpointInstance* win = Entry(manifest, "win");
      ASSERT_TRUE(hk != nullptr && win != nullptr);
      ASSERT_LE(hk->packets_applied, campus.ids.size());
      ASSERT_LE(win->packets_applied, caida.ids.size());
      EXPECT_EQ(hk->state, DirectState(kMinimum, options.defaults, campus, false,
                                       hk->packets_applied))
          << "hk cut at " << hk->packets_applied;
      EXPECT_EQ(win->state, DirectState(kWindow, options.defaults, caida, false,
                                        win->packets_applied))
          << "win cut at " << win->packets_applied;
      cuts.emplace_back(hk->packets_applied, win->packets_applied);
    }
  });

  // EXPECT, not ASSERT: the query threads must be joined on every path.
  SourceBinding binding;
  binding.source = campus_path;
  binding.policy = PcapKeyPolicy::kFiveTuple;
  EXPECT_TRUE(core.Attach("hk", binding, &err)) << err;
  binding.source = caida_path;
  binding.policy = PcapKeyPolicy::kAddrPair;
  EXPECT_TRUE(core.Attach("win", binding, &err)) << err;
  core.DrainIngest();
  // Let both threads finish a round against the drained instances too.
  const uint64_t seen = answered.load();
  while (answered.load() < seen + 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  topk.join();
  point_and_checkpoint.join();

  EXPECT_EQ(core.PacketsApplied("hk"), campus.ids.size());
  EXPECT_EQ(core.PacketsApplied("win"), caida.ids.size());
  ASSERT_FALSE(cuts.empty());
  size_t mid_stream = 0;
  for (const auto& [hk_cut, win_cut] : cuts) {
    mid_stream += hk_cut < campus.ids.size() || win_cut < caida.ids.size();
  }
  RecordProperty("checkpoints", static_cast<int>(cuts.size()));
  RecordProperty("mid_stream_checkpoints", static_cast<int>(mid_stream));
  const CheckpointManifest last = Checkpointed(core);
  EXPECT_EQ(Entry(last, "hk")->state,
            DirectState(kMinimum, options.defaults, campus, false, campus.ids.size()));
  EXPECT_EQ(Entry(last, "win")->state,
            DirectState(kWindow, options.defaults, caida, false, caida.ids.size()));
  std::remove(options.checkpoint_path.c_str());
  std::remove(campus_path.c_str());
  std::remove(caida_path.c_str());
}

// Four threads query one instance back to back. A windowed TOPK holds the
// instance lock far longer than a thread spends between requests, so some
// query is nearly always queued on it. Queries go first only
// phase-fairly, so ingest must still drain; a deadline turns a starved
// apply stage into a failure instead of a hang (the query threads stop at
// it, which lets ingest finish). Today every query also holds the map lock
// while it waits, so at most one waits at a time; the bound must not
// depend on that.
TEST(ServeIngestQueryFlood, DrainFinishesUnderBackToBackQueries) {
  const std::string path = TempPath("serve_ingest_flood.pcap");
  SynthesizeCapture(CampusConfig(200000, 13), path, CaptureSynthOptions{});
  const Capture capture = ReadCapture(path, PcapKeyPolicy::kFiveTuple);

  ServeOptions options;
  options.defaults = Defaults(PcapKeyPolicy::kFiveTuple, 256 * 1024);
  ServeCore core(options);
  std::string err;
  ASSERT_TRUE(core.Create("win", "Window:w=8,epoch=2000,inner=HK-Minimum", &err)) << err;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  std::atomic<bool> drained{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> queriers;
  for (int i = 0; i < 4; ++i) {
    queriers.emplace_back([&] {
      while (!drained.load() && Clock::now() < deadline) {
        const std::string reply = core.Execute("TOPK win 32 window");
        EXPECT_EQ(reply.rfind("ERR", 0), std::string::npos) << reply;
        answered.fetch_add(1);
      }
    });
  }
  // Ingest starts under the flood.
  while (answered.load() < 100 && Clock::now() < deadline) {
    std::this_thread::yield();
  }
  SourceBinding binding;
  binding.source = path;
  EXPECT_TRUE(core.Attach("win", binding, &err)) << err;
  core.DrainIngest();
  const bool in_time = Clock::now() < deadline;
  drained.store(true);
  for (std::thread& querier : queriers) {
    querier.join();
  }
  EXPECT_TRUE(in_time) << "ingest starved behind back-to-back queries";
  EXPECT_EQ(core.PacketsApplied("win"), capture.ids.size());
  std::remove(path.c_str());
}

// The apply stage is made slow (a 64-packet epoch rebuilds a 1 MB window
// slot every 64 packets), so the parse stage, which needs a few
// microseconds per burst, fills the ring and sleeps on it long before the
// stream ends. DROP must wake it and return; the daemon keeps serving.
TEST(ServeIngestDrop, ReturnsWhileParseStageWaitsOnFullRing) {
  constexpr uint64_t kPackets = 200000;
  const std::string path = TempPath("serve_ingest_drop.pcap");
  SynthesizeCapture(CampusConfig(kPackets, 5), path, CaptureSynthOptions{});

  ServeOptions options;
  options.defaults = Defaults(PcapKeyPolicy::kFiveTuple, 8 * 1024 * 1024);
  options.ingest_batch = 64;
  ServeCore core(options);
  std::string err;
  ASSERT_TRUE(core.Create("slow", "Window:w=8,epoch=64,inner=HK-Minimum", &err)) << err;
  SourceBinding binding;
  binding.source = path;
  ASSERT_TRUE(core.Attach("slow", binding, &err)) << err;

  // Once the apply stage has started, give the parse stage time to fill
  // the ring (8 bursts of 64 records).
  for (int i = 0; i < 5000 && core.PacketsApplied("slow") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_LT(core.PacketsApplied("slow"), kPackets) << "the stream ended before DROP";
  ASSERT_TRUE(core.Drop("slow", &err)) << err;
  EXPECT_TRUE(core.InstanceNames().empty());
  EXPECT_EQ(core.Execute("PING"), "OK pong\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hk
