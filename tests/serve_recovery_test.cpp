// hk_serve crash-recovery tests (the ISSUE's kill-point suite, run
// in-process): a daemon killed at any synthetic kill point - mid-ingest,
// mid-checkpoint-write, with a torn manifest, with a stale temp file -
// recovers from the latest durable checkpoint into a well-formed sketch,
// with loss bounded by the checkpoint interval (zero for replayable file
// sources, whose applied prefix is skipped on re-attach), and never loads
// a corrupt manifest.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ingest/capture_synth.h"
#include "serve/checkpoint.h"
#include "serve/net.h"
#include "serve/serve_core.h"
#include "sketch/registry.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

SketchDefaults SmallDefaults() {
  SketchDefaults d;
  d.memory_bytes = 32 * 1024;
  d.k = 50;
  d.key_kind = KeyKind::kFiveTuple13B;
  d.seed = 1;
  return d;
}

ServeOptions OptionsWithCheckpoint(const std::string& ckpt) {
  ServeOptions options;
  options.checkpoint_path = ckpt;
  options.defaults = SmallDefaults();
  options.ingest_batch = 64;  // more checkpoint cut points per capture
  return options;
}

struct Fixture {
  std::string path;
  Trace trace;
  Oracle oracle;
};

// One larger capture shared by the suite (ingest takes long enough that a
// checkpoint usually lands mid-stream; every assertion also holds when it
// lands after EOF).
const Fixture& Capture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture;
    // Per process: ctest -j runs each test in its own process, and a
    // shared path would let one process rewrite the file another reads.
    f->path = TempPath("serve_recovery." + std::to_string(getpid()) + ".pcap");
    std::atexit([] { std::remove(Capture().path.c_str()); });
    f->trace = SynthesizeCapture(CampusConfig(120000, 9), f->path, CaptureSynthOptions{});
    f->oracle.AddTrace(f->trace);
    return f;
  }();
  return *fixture;
}

// Deterministic reference: Space-Saving has no randomized transitions, so
// any interleaving of batches - including a checkpoint/recover seam at an
// arbitrary cut - must reproduce the uninterrupted run bit for bit.
constexpr const char kSpec[] = "SS:mem=24KB";

std::unique_ptr<TopKAlgorithm> ReferenceFedPrefix(uint64_t packets) {
  auto ref = MakeSketch(kSpec, SmallDefaults());
  std::span<const FlowId> prefix(Capture().trace.packets.data(), packets);
  ref->InsertBatch(prefix);
  return ref;
}

TEST(ServeRecovery, KilledMidIngestRecoversWithZeroLossFromFileSource) {
  const Fixture& fx = Capture();
  const std::string ckpt = TempPath("reco_mid_ingest.hk");
  std::remove(ckpt.c_str());

  uint64_t offset_at_checkpoint = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    // Let some of the stream land, then checkpoint - usually mid-ingest.
    while (core.PacketsApplied("t") < 2000) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
    CheckpointManifest m;
    ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    ASSERT_EQ(m.instances.size(), 1u);
    offset_at_checkpoint = m.instances[0].packets_applied;
    EXPECT_GE(offset_at_checkpoint, 2000u);
    // Crash: the core dies here; everything applied after the checkpoint
    // is lost with the process.
  }

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  // The applied offset resumed from the durable cut, not from zero.
  EXPECT_GE(revived.PacketsApplied("t"), offset_at_checkpoint);
  revived.DrainIngest();
  // Zero loss: the file source replays with the checkpointed prefix
  // skipped, so the final state equals an uninterrupted run's.
  EXPECT_EQ(revived.PacketsApplied("t"), fx.trace.packets.size());
  auto reference = ReferenceFedPrefix(fx.trace.packets.size());
  const auto got = revived.Execute("TOPK t 20 exact");
  std::string want;
  for (const auto& fc : reference->TopK(20)) {
    char line[64];
    std::snprintf(line, sizeof(line), "FLOW %llx %llu\n",
                  static_cast<unsigned long long>(fc.id),
                  static_cast<unsigned long long>(fc.count));
    want += line;
  }
  EXPECT_EQ(got.substr(0, want.size()), want);
}

TEST(ServeRecovery, WindowedInstanceRecoversRingContentsIntact) {
  // Kill point for the sliding-window ring: checkpoint mid-ingest after
  // several rotations, crash, recover, finish the stream. The checkpoint
  // must carry all W slots plus the rotation cursor - a missing slot or a
  // reset cursor would desynchronize every later rotation, so bit-equality
  // with the uninterrupted run proves the ring survived whole.
  const Fixture& fx = Capture();
  constexpr const char kWinSpec[] = "Window:w=4,epoch=1000,inner=SS:mem=24KB";
  const std::string ckpt = TempPath("reco_windowed.hk");
  std::remove(ckpt.c_str());

  uint64_t offset_at_checkpoint = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kWinSpec, &err)) << err;
    SourceBinding binding;
    binding.source = fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    // Past 5000 packets the 1000-packet ring has rotated 5+ times, so the
    // checkpoint cut lands with a populated ring and a mid-epoch cursor.
    while (core.PacketsApplied("t") < 5000) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
    CheckpointManifest m;
    ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    offset_at_checkpoint = m.instances[0].packets_applied;
    EXPECT_GE(offset_at_checkpoint, 5000u);
    // Crash here.
  }

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  EXPECT_GE(revived.PacketsApplied("t"), offset_at_checkpoint);
  revived.DrainIngest();
  EXPECT_EQ(revived.PacketsApplied("t"), fx.trace.packets.size());

  // Uninterrupted reference ring over the whole capture (SS inner: fully
  // deterministic, and the batch == scalar contract makes the ingest
  // thread's burst shape irrelevant).
  auto reference = MakeSketch(kWinSpec, SmallDefaults());
  reference->InsertBatch(fx.trace.packets);
  const std::string got = revived.Execute("TOPK t 20 window");
  std::string want;
  for (const auto& fc : reference->TopK(20)) {
    char line[64];
    std::snprintf(line, sizeof(line), "FLOW %llx %llu\n",
                  static_cast<unsigned long long>(fc.id),
                  static_cast<unsigned long long>(fc.count));
    want += line;
  }
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got.substr(0, want.size()), want);
  // The rotation cursor also survived: 120000 packets / 1000 per epoch.
  EXPECT_NE(got.find(" completed_epochs=120"), std::string::npos) << got;
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, KilledDuringCheckpointWriteRecoversFromPreviousDurableOne) {
  const Fixture& fx = Capture();
  const std::string ckpt = TempPath("reco_mid_write.hk");
  std::remove(ckpt.c_str());

  uint64_t durable_offset = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    while (core.PacketsApplied("t") < 1000) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
    CheckpointManifest m;
    ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    durable_offset = m.instances[0].packets_applied;
  }
  // Kill point: the next checkpoint died mid-write, leaving a partial
  // temp file beside the intact previous manifest (exactly what the
  // atomic write protocol guarantees is the worst case).
  {
    std::ofstream torn(ckpt + ".tmp", std::ios::binary | std::ios::trunc);
    torn << "HKSERVE1 but torn before the payload landed";
  }

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  EXPECT_GE(revived.PacketsApplied("t"), durable_offset);
  revived.DrainIngest();
  EXPECT_EQ(revived.PacketsApplied("t"), fx.trace.packets.size());
  // The stale temp was cleared, not promoted.
  std::ifstream tmp(ckpt + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(ServeRecovery, TornManifestIsRejectedNotHalfLoaded) {
  const Fixture& fx = Capture();
  const std::string ckpt = TempPath("reco_torn.hk");
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    core.DrainIngest();
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
  }
  // Truncate the committed manifest in place (a non-atomic writer's torn
  // file; our own writer can never produce this, which is the point).
  std::vector<char> bytes;
  {
    std::ifstream in(ckpt, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  EXPECT_FALSE(revived.Recover(&recovered, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(recovered, 0u);
  EXPECT_TRUE(revived.InstanceNames().empty()) << "partial recovery leaked instances";
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, MissingCheckpointIsAFreshStart) {
  ServeCore core(OptionsWithCheckpoint(TempPath("reco_never_written.hk")));
  size_t recovered = 99;
  std::string err;
  EXPECT_TRUE(core.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 0u);
}

TEST(ServeRecovery, VanishedSourceRecoversStateAndSurfacesTheError) {
  const std::string capture = TempPath("reco_vanishing.pcap");
  const Trace trace = SynthesizeCapture(CampusConfig(5000, 13), capture, CaptureSynthOptions{});
  ASSERT_FALSE(trace.packets.empty());
  const std::string ckpt = TempPath("reco_vanished.hk");
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = capture;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    core.DrainIngest();
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
  }
  std::remove(capture.c_str());  // the capture is gone when the daemon restarts

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;  // state recovery still succeeds
  EXPECT_EQ(recovered, 1u);
  EXPECT_EQ(revived.PacketsApplied("t"), trace.packets.size());
  const std::string stats = revived.Execute("STATS t");
  EXPECT_NE(stats.find("STAT ingest_error"), std::string::npos) << stats;
  // The recovered sketch still answers.
  Oracle oracle(trace);
  const auto truth = oracle.TopK(1);
  char point[48];
  std::snprintf(point, sizeof(point), "POINT t %llx",
                static_cast<unsigned long long>(truth[0].id));
  const std::string answer = revived.Execute(point);
  EXPECT_EQ(answer.rfind("OK ", 0), 0u);
  EXPECT_NE(answer, "OK 0\n");
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, NonReplayableSocketSourceLosesAtMostTheTailAfterTheCut) {
  const Fixture& fx = Capture();
  // Feed the capture's bytes over a TCP socket: a non-replayable source.
  std::string err;
  uint16_t port = 0;
  const int listen_fd = ListenTcp(0, &port, &err);
  ASSERT_GE(listen_fd, 0) << err;
  std::thread feeder([&] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      return;
    }
    std::ifstream in(fx.path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    WriteAll(conn, bytes.data(), bytes.size());
    ::close(conn);  // EOF ends the stream
  });

  const std::string ckpt = TempPath("reco_socket.hk");
  std::remove(ckpt.c_str());
  uint64_t cut = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = "tcp://127.0.0.1:" + std::to_string(port);
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    core.DrainIngest();  // the feeder closes after the full capture
    EXPECT_EQ(core.PacketsApplied("t"), fx.trace.packets.size());
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
    CheckpointManifest m;
    ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    cut = m.instances[0].packets_applied;
  }
  feeder.join();
  ::close(listen_fd);

  // Restart: the socket peer is gone. Recovery must restore the sketch to
  // exactly the checkpoint cut (no replay possible, loss bounded by the
  // interval) and surface the dead source instead of failing.
  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  revived.DrainIngest();
  EXPECT_EQ(revived.PacketsApplied("t"), cut) << "socket source must not be replayed";
  auto reference = ReferenceFedPrefix(cut);
  const std::string got = revived.Execute("TOPK t 20 exact");
  std::string want;
  for (const auto& fc : reference->TopK(20)) {
    char line[64];
    std::snprintf(line, sizeof(line), "FLOW %llx %llu\n",
                  static_cast<unsigned long long>(fc.id),
                  static_cast<unsigned long long>(fc.count));
    want += line;
  }
  EXPECT_EQ(got.substr(0, want.size()), want);
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, QueriesStayCorrectWhileIngestRuns) {
  const Fixture& fx = Capture();
  ServeOptions options = OptionsWithCheckpoint(TempPath("reco_live.hk"));
  options.defaults.memory_bytes = 64 * 1024;
  ServeCore core(options);
  ASSERT_EQ(core.Execute("CREATE live Concurrent:inner=HK-Basic"), "OK created live\n");
  ASSERT_EQ(core.Execute("ATTACH live " + fx.path), "OK attached live\n");

  // While the ingest thread inserts, relaxed snapshots must stay
  // well-formed: sorted descending, duplicate-free, never more than k.
  // And periodic checkpoints interleave without wedging either side.
  for (int round = 0; round < 5; ++round) {
    const std::string response = core.Execute("TOPK live 10 relaxed");
    std::istringstream in(response);
    std::string line;
    uint64_t prev = UINT64_MAX;
    std::vector<std::string> ids;
    size_t flows = 0;
    while (std::getline(in, line)) {
      if (line.rfind("FLOW ", 0) != 0) {
        continue;
      }
      std::istringstream fields(line);
      std::string tag, id;
      uint64_t count = 0;
      fields >> tag >> id >> count;
      EXPECT_LE(count, prev) << "relaxed snapshot not sorted: " << response;
      prev = count;
      for (const auto& seen : ids) {
        EXPECT_NE(seen, id) << "duplicate flow in relaxed snapshot";
      }
      ids.push_back(id);
      ++flows;
    }
    EXPECT_LE(flows, 10u);
    std::string err;
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
  }
  core.DrainIngest();
  // After the stream drains, the exact answer agrees with the oracle on
  // the heaviest flow (64KB on this trace is effectively collision-free).
  const std::string final = core.Execute("TOPK live 5 exact");
  const auto truth = fx.oracle.TopK(1);
  char expect[48];
  std::snprintf(expect, sizeof(expect), "FLOW %llx %llu",
                static_cast<unsigned long long>(truth[0].id),
                static_cast<unsigned long long>(truth[0].count));
  EXPECT_EQ(final.rfind(expect, 0), 0u) << final;
  std::remove(options.checkpoint_path.c_str());
}

}  // namespace
}  // namespace hk
