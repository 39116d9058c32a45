// Checkpoint durability tests: (1) the SaveState/LoadState round trip is
// exact for every registered sketch - a recovered daemon answers queries
// identically to the one that crashed; (2) the manifest file format
// rejects every species of corruption a crash can mint (torn tail,
// truncation, bit flips, foreign bytes) instead of loading garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/checkpoint.h"
#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

SketchDefaults SmallDefaults() {
  SketchDefaults d;
  d.memory_bytes = 20 * 1024;
  d.k = 50;
  d.key_kind = KeyKind::kFiveTuple13B;
  d.seed = 1;
  return d;
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Registry-wide SaveState/LoadState round trip.

class CheckpointSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckpointSweep, SaveLoadRoundTripIsExact) {
  const SketchDefaults defaults = SmallDefaults();
  auto saved = MakeSketch(GetParam(), defaults);
  ASSERT_NE(saved, nullptr);

  const Trace trace = MakeCampusTrace(60000, 3);
  saved->InsertBatch(trace.packets);
  saved->Flush();

  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob)) << GetParam() << " does not support checkpointing";
  ASSERT_FALSE(blob.empty()) << GetParam();

  // Fresh identical-spec instance, per the LoadState contract.
  auto loaded = MakeSketch(saved->name(), defaults);
  ASSERT_NE(loaded, nullptr);
  ASSERT_TRUE(loaded->LoadState(blob.data(), blob.size())) << GetParam();

  QueryOptions exact;
  exact.k = 30;
  const QueryResult a = saved->Snapshot(exact);
  const QueryResult b = loaded->Snapshot(exact);
  EXPECT_EQ(a.flows, b.flows) << GetParam();
  EXPECT_EQ(a.stats.tracked_flows, b.stats.tracked_flows) << GetParam();
  EXPECT_EQ(a.stats.min_tracked, b.stats.min_tracked) << GetParam();

  for (const auto& fc : a.flows) {
    EXPECT_EQ(saved->EstimateSize(fc.id), loaded->EstimateSize(fc.id)) << GetParam();
  }
  // A flow the trace never produced must stay a mouse on both sides.
  EXPECT_EQ(saved->EstimateSize(0xdeadbeefcafef00dULL),
            loaded->EstimateSize(0xdeadbeefcafef00dULL))
      << GetParam();
}

TEST_P(CheckpointSweep, LoadRejectsTruncatedBlobWithoutMutating) {
  const SketchDefaults defaults = SmallDefaults();
  auto saved = MakeSketch(GetParam(), defaults);
  const Trace trace = MakeCampusTrace(20000, 4);
  saved->InsertBatch(trace.packets);
  saved->Flush();

  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob));

  auto fresh = MakeSketch(saved->name(), defaults);
  EXPECT_FALSE(fresh->LoadState(blob.data(), blob.size() / 2)) << GetParam();
  EXPECT_FALSE(fresh->LoadState(blob.data(), 3)) << GetParam();
  // Trailing garbage must also be rejected - the blob is length-framed by
  // its container, so extra bytes mean the frame was torn.
  std::vector<uint8_t> padded = blob;
  padded.push_back(0x5a);
  EXPECT_FALSE(fresh->LoadState(padded.data(), padded.size())) << GetParam();

  // The failed loads left the instance usable and empty.
  EXPECT_TRUE(fresh->TopK(10).empty()) << GetParam();
  ASSERT_TRUE(fresh->LoadState(blob.data(), blob.size())) << GetParam();
  EXPECT_EQ(fresh->TopK(10), saved->TopK(10)) << GetParam();
}

// The SaveState append contract: a blob lands after whatever the caller's
// vector already holds, the prefix stays intact, and the appended bytes
// are exactly what an empty vector receives.
void ExpectSaveStateAppends(const std::string& spec) {
  const SketchDefaults defaults = SmallDefaults();
  auto algo = MakeSketch(spec, defaults);
  ASSERT_NE(algo, nullptr) << spec;
  algo->InsertBatch(MakeCampusTrace(30000, 6).packets);
  algo->Flush();

  std::vector<uint8_t> alone;
  ASSERT_TRUE(algo->SaveState(&alone)) << spec;
  const std::vector<uint8_t> prefix = {0x11, 0x22, 0x33, 0x44, 0x55};
  std::vector<uint8_t> appended = prefix;
  ASSERT_TRUE(algo->SaveState(&appended)) << spec;
  ASSERT_EQ(appended.size(), prefix.size() + alone.size()) << spec;
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), appended.begin())) << spec;
  EXPECT_TRUE(std::equal(alone.begin(), alone.end(), appended.begin() + prefix.size())) << spec;
}

TEST_P(CheckpointSweep, SaveStateAppendsAfterExistingBytes) { ExpectSaveStateAppends(GetParam()); }

TEST(CheckpointAppend, ThreadedShardedAppendsAfterExistingBytes) {
  ExpectSaveStateAppends("Sharded:n=4,threads=1");
}

// hk_serve checkpoints a threaded Sharded instance from its checkpoint
// thread while the ingest thread keeps inserting; the instance lock
// serializes the two, but the workers are still draining the rings when
// SaveState starts. Every blob must be the state of exactly the packets
// inserted so far - equal to a synchronous instance fed that prefix - and
// must load into a fresh instance.
TEST(ShardedCheckpoint, SaveWhileAProducerInsertsCapturesTheInsertedPrefix) {
  const SketchDefaults defaults = SmallDefaults();
  const std::string spec = "Sharded:n=4,threads=1";
  auto live = MakeSketch(spec, defaults);
  const Trace trace = MakeCampusTrace(60000, 8);
  const std::span<const FlowId> packets(trace.packets);
  constexpr size_t kChunk = 1000;

  std::mutex mu;
  std::atomic<bool> done{false};
  size_t inserted = 0;
  std::thread producer([&] {
    for (size_t at = 0; at < packets.size(); at += kChunk) {
      const std::lock_guard<std::mutex> lock(mu);
      const size_t n = std::min(kChunk, packets.size() - at);
      live->InsertBatch(packets.subspan(at, n));
      inserted = at + n;
    }
    done.store(true, std::memory_order_release);
  });
  struct Save {
    size_t prefix;
    std::vector<uint8_t> blob;
  };
  std::vector<Save> saves;
  while (saves.size() < 6) {
    Save save;
    {
      const std::lock_guard<std::mutex> lock(mu);
      save.prefix = inserted;
      ASSERT_TRUE(live->SaveState(&save.blob));
    }
    saves.push_back(std::move(save));
    if (done.load(std::memory_order_acquire)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();

  for (const Save& save : saves) {
    auto sync = MakeSketch("Sharded:n=4", defaults);
    sync->InsertBatch(packets.first(save.prefix));
    std::vector<uint8_t> expected;
    ASSERT_TRUE(sync->SaveState(&expected));
    EXPECT_EQ(save.blob, expected) << "save after " << save.prefix << " packets";

    auto restored = MakeSketch(spec, defaults);
    ASSERT_TRUE(restored->LoadState(save.blob.data(), save.blob.size()));
    EXPECT_EQ(restored->TopK(20), sync->TopK(20)) << "save after " << save.prefix << " packets";
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CheckpointSweep,
                         ::testing::ValuesIn(RegisteredSketches()), [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return s;
                         });

// ---------------------------------------------------------------------------
// Manifest file format.

CheckpointManifest SampleManifest() {
  CheckpointManifest m;
  CheckpointInstance a;
  a.name = "campus";
  a.spec = "HK:mem=32KB,k=40";
  a.memory_bytes = 32 * 1024;
  a.k = 40;
  a.key_kind = static_cast<uint8_t>(KeyKind::kFiveTuple13B);
  a.seed = 7;
  a.source = "/captures/campus.pcap";
  a.source_key_policy = 0;
  a.byte_weighted = 1;
  a.packets_applied = 123456;
  a.state = {1, 2, 3, 4, 5, 6, 7, 8};
  CheckpointInstance b;
  b.name = "edge";
  b.spec = "Concurrent:inner=HK-Basic";
  b.state = std::vector<uint8_t>(300, 0xab);
  m.instances = {a, b};
  return m;
}

void ExpectEqualManifests(const CheckpointManifest& x, const CheckpointManifest& y) {
  ASSERT_EQ(x.instances.size(), y.instances.size());
  for (size_t i = 0; i < x.instances.size(); ++i) {
    const auto& p = x.instances[i];
    const auto& q = y.instances[i];
    EXPECT_EQ(p.name, q.name);
    EXPECT_EQ(p.spec, q.spec);
    EXPECT_EQ(p.memory_bytes, q.memory_bytes);
    EXPECT_EQ(p.k, q.k);
    EXPECT_EQ(p.key_kind, q.key_kind);
    EXPECT_EQ(p.seed, q.seed);
    EXPECT_EQ(p.source, q.source);
    EXPECT_EQ(p.source_key_policy, q.source_key_policy);
    EXPECT_EQ(p.byte_weighted, q.byte_weighted);
    EXPECT_EQ(p.packets_applied, q.packets_applied);
    EXPECT_EQ(p.state, q.state);
  }
}

TEST(CheckpointFormat, EncodeDecodeRoundTrip) {
  const CheckpointManifest m = SampleManifest();
  const std::vector<uint8_t> bytes = EncodeCheckpoint(m);
  CheckpointManifest out;
  std::string err;
  ASSERT_TRUE(DecodeCheckpoint(bytes.data(), bytes.size(), &out, &err)) << err;
  ExpectEqualManifests(m, out);
}

TEST(CheckpointFormat, EmptyManifestRoundTrips) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(CheckpointManifest{});
  CheckpointManifest out;
  ASSERT_TRUE(DecodeCheckpoint(bytes.data(), bytes.size(), &out, nullptr));
  EXPECT_TRUE(out.instances.empty());
}

TEST(CheckpointFormat, RejectsEveryTruncationPoint) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(SampleManifest());
  // A crash can tear the file at any byte; no prefix may load.
  for (size_t len = 0; len < bytes.size(); ++len) {
    CheckpointManifest out;
    EXPECT_FALSE(DecodeCheckpoint(bytes.data(), len, &out, nullptr)) << "prefix length " << len;
  }
}

TEST(CheckpointFormat, RejectsBitFlips) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(SampleManifest());
  // Flip one bit at a spread of positions covering header and payload.
  for (size_t pos = 0; pos < bytes.size(); pos += 13) {
    std::vector<uint8_t> bad = bytes;
    bad[pos] ^= 0x20;
    CheckpointManifest out;
    std::string err;
    EXPECT_FALSE(DecodeCheckpoint(bad.data(), bad.size(), &out, &err))
        << "bit flip at " << pos << " loaded anyway";
  }
}

TEST(CheckpointFormat, RejectsAppendedGarbage) {
  std::vector<uint8_t> bytes = EncodeCheckpoint(SampleManifest());
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
  CheckpointManifest out;
  EXPECT_FALSE(DecodeCheckpoint(bytes.data(), bytes.size(), &out, nullptr));
}

TEST(CheckpointFormat, RejectsForeignFile) {
  const std::string text = "GIF89a definitely not a checkpoint";
  CheckpointManifest out;
  std::string err;
  EXPECT_FALSE(DecodeCheckpoint(reinterpret_cast<const uint8_t*>(text.data()), text.size(), &out,
                                &err));
  EXPECT_FALSE(err.empty());
}

TEST(CheckpointFile, AtomicWriteThenLoad) {
  const std::string path = TempPath("ckpt_atomic.hk");
  const CheckpointManifest m = SampleManifest();
  std::string err;
  ASSERT_TRUE(WriteCheckpointAtomic(path, m, &err)) << err;
  CheckpointManifest out;
  ASSERT_TRUE(LoadCheckpoint(path, &out, &err)) << err;
  ExpectEqualManifests(m, out);
  // No temp residue after a clean commit.
  EXPECT_FALSE(RemoveStaleCheckpointTemp(path));
  std::remove(path.c_str());
}

TEST(CheckpointFile, RewriteReplacesAtomically) {
  const std::string path = TempPath("ckpt_rewrite.hk");
  CheckpointManifest first = SampleManifest();
  ASSERT_TRUE(WriteCheckpointAtomic(path, first, nullptr));
  CheckpointManifest second = SampleManifest();
  second.instances[0].packets_applied = 999999;
  second.instances.pop_back();
  ASSERT_TRUE(WriteCheckpointAtomic(path, second, nullptr));
  CheckpointManifest out;
  ASSERT_TRUE(LoadCheckpoint(path, &out, nullptr));
  ExpectEqualManifests(second, out);
  std::remove(path.c_str());
}

TEST(CheckpointFile, TornFileOnDiskRefusesToLoad) {
  const std::string path = TempPath("ckpt_torn.hk");
  const std::vector<uint8_t> bytes = EncodeCheckpoint(SampleManifest());
  // Simulate a non-atomic writer dying mid-write: half the file.
  WriteFileBytes(path, std::vector<uint8_t>(bytes.begin(), bytes.begin() + bytes.size() / 2));
  CheckpointManifest out;
  std::string err;
  EXPECT_FALSE(LoadCheckpoint(path, &out, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

TEST(CheckpointFile, StaleTempIsDetectedAndRemoved) {
  const std::string path = TempPath("ckpt_stale.hk");
  const std::string tmp = path + ".tmp";
  WriteFileBytes(tmp, {0x01, 0x02, 0x03});  // crash left a partial temp
  EXPECT_TRUE(RemoveStaleCheckpointTemp(path));
  EXPECT_FALSE(RemoveStaleCheckpointTemp(path));  // gone now
  // And a stale temp never shadows the committed file.
  ASSERT_TRUE(WriteCheckpointAtomic(path, SampleManifest(), nullptr));
  WriteFileBytes(tmp, {0x01, 0x02, 0x03});
  CheckpointManifest out;
  ASSERT_TRUE(LoadCheckpoint(path, &out, nullptr));
  EXPECT_EQ(out.instances.size(), 2u);
  std::remove(tmp.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileReportsOpenError) {
  CheckpointManifest out;
  std::string err;
  EXPECT_FALSE(LoadCheckpoint(TempPath("ckpt_never_written.hk"), &out, &err));
  // ServeCore::Recover keys "fresh start" off this prefix.
  EXPECT_EQ(err.rfind("open ", 0), 0u) << err;
}

}  // namespace
}  // namespace hk
