// Checkpoint format pinning: tests/data/checkpoint_v1.bin is a manifest of
// three small instances (plain HK-Minimum, a threaded 2-shard Sharded, a
// 4-epoch Window ring) fed a fixed seeded trace, recorded by an earlier
// encoder. The save path may be rewritten for speed, but the bytes it
// emits may not change: the file must still load, re-encode bit-for-bit,
// and every instance - rebuilt from the trace or restored from the file -
// must save exactly the blob stored in it.
//
// Regenerating (only legitimate for a deliberate format bump):
//   HK_WRITE_GOLDENS=1 ./hk_tests --gtest_filter='CheckpointGolden*'
// rewrites the file from the current encoder; review why it changed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "serve/checkpoint.h"
#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

#ifndef HK_TEST_DATA_DIR
#define HK_TEST_DATA_DIR "tests/data"
#endif

const char* const kGoldenSpecs[][2] = {
    {"hk", "HK-Minimum"},
    {"sharded", "Sharded:n=2,threads=1"},
    {"window", "Window:w=4,epoch=3000"},
};

std::string GoldenPath() { return std::string(HK_TEST_DATA_DIR) + "/checkpoint_v1.bin"; }

SketchDefaults GoldenDefaults(const CheckpointInstance& inst) {
  SketchDefaults d;
  d.memory_bytes = inst.memory_bytes;
  d.k = inst.k;
  d.key_kind = static_cast<KeyKind>(inst.key_kind);
  d.seed = inst.seed;
  return d;
}

// Builds one instance from scratch and feeds it the fixed trace.
std::unique_ptr<TopKAlgorithm> BuildFromTrace(const CheckpointInstance& inst) {
  auto algo = MakeSketch(inst.spec, GoldenDefaults(inst));
  const Trace trace = MakeCampusTrace(12000, 29);
  algo->InsertBatch(trace.packets);
  algo->Flush();
  return algo;
}

CheckpointManifest BuildManifest() {
  CheckpointManifest manifest;
  for (const auto& [name, spec] : kGoldenSpecs) {
    CheckpointInstance inst;
    inst.name = name;
    inst.spec = spec;
    inst.memory_bytes = 4 * 1024;
    inst.k = 16;
    inst.key_kind = static_cast<uint8_t>(KeyKind::kFiveTuple13B);
    inst.seed = 13;
    inst.packets_applied = 12000;
    EXPECT_TRUE(BuildFromTrace(inst)->SaveState(&inst.state)) << spec;
    manifest.instances.push_back(std::move(inst));
  }
  return manifest;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CheckpointGolden, FileLoadsReencodesAndResavesByteIdentically) {
  if (std::getenv("HK_WRITE_GOLDENS") != nullptr) {
    const std::vector<uint8_t> bytes = EncodeCheckpoint(BuildManifest());
    std::ofstream out(GoldenPath(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    GTEST_SKIP() << "rewrote " << GoldenPath();
  }
  const std::vector<uint8_t> golden = ReadFileBytes(GoldenPath());
  ASSERT_FALSE(golden.empty()) << "missing fixture " << GoldenPath();

  CheckpointManifest manifest;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(GoldenPath(), &manifest, &error)) << error;
  ASSERT_EQ(manifest.instances.size(), std::size(kGoldenSpecs));
  EXPECT_EQ(EncodeCheckpoint(manifest), golden);

  for (const CheckpointInstance& inst : manifest.instances) {
    std::vector<uint8_t> rebuilt;
    ASSERT_TRUE(BuildFromTrace(inst)->SaveState(&rebuilt)) << inst.spec;
    EXPECT_EQ(rebuilt, inst.state) << inst.spec << " (rebuilt from the trace)";

    auto restored = MakeSketch(inst.spec, GoldenDefaults(inst));
    ASSERT_TRUE(restored->LoadState(inst.state.data(), inst.state.size())) << inst.spec;
    std::vector<uint8_t> resaved;
    ASSERT_TRUE(restored->SaveState(&resaved)) << inst.spec;
    EXPECT_EQ(resaved, inst.state) << inst.spec << " (restored from the file)";
  }
}

}  // namespace
}  // namespace hk
