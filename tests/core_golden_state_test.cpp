// Golden-state equality across storage refactors.
//
// Each scenario streams a fixed, seeded trace through one of the scalar
// insertion disciplines and compares the complete sketch state (every
// bucket, stuck counter, expansion count) against a golden file recorded
// from the pre-refactor vector-of-structs implementation and checked into
// tests/data/. Any storage rewrite (the packed-slab layout included) must
// reproduce those states bit-for-bit: the decay RNG consumption order, the
// case logic, saturation, and expansion behaviour are all pinned here.
//
// Regenerating (only legitimate when the *semantics* deliberately change):
//   HK_WRITE_GOLDENS=1 ./hk_tests --gtest_filter='GoldenState*'
// rewrites the files under tests/data/; review the diff carefully.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/heavykeeper.h"
#include "core/hk_topk.h"
#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

#ifndef HK_TEST_DATA_DIR
#define HK_TEST_DATA_DIR "tests/data"
#endif

struct Scenario {
  const char* name;
  HeavyKeeperConfig config;
  std::function<void(HeavyKeeper&)> stream;
};

// Serialize the complete observable sketch state as deterministic text.
std::string StateText(const HeavyKeeper& sketch) {
  const auto arrays = sketch.DebugDump();
  std::string out;
  char line[64];
  std::snprintf(line, sizeof(line), "arrays %zu w %zu\n", arrays.size(),
                arrays.empty() ? 0 : arrays[0].size());
  out += line;
  std::snprintf(line, sizeof(line), "stuck %llu expansions %llu\n",
                static_cast<unsigned long long>(sketch.stuck_events()),
                static_cast<unsigned long long>(sketch.expansions()));
  out += line;
  for (size_t j = 0; j < arrays.size(); ++j) {
    for (size_t i = 0; i < arrays[j].size(); ++i) {
      if (arrays[j][i].c == 0 && arrays[j][i].fp == 0) {
        continue;  // empty buckets are implicit, keeping the goldens small
      }
      std::snprintf(line, sizeof(line), "%zu %zu %u %u\n", j, i, arrays[j][i].fp,
                    arrays[j][i].c);
      out += line;
    }
  }
  return out;
}

std::string GoldenPath(const char* name) {
  return std::string(HK_TEST_DATA_DIR) + "/golden_" + name + ".txt";
}

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> scenarios;

  {
    // Plain Basic insertion over a skewed synthetic stream: exercises all
    // three cases (claims, increments, decay coins) at the default widths.
    HeavyKeeperConfig config;
    config.d = 2;
    config.w = 64;
    config.seed = 7;
    scenarios.push_back({"basic_zipfish", config, [](HeavyKeeper& hk) {
                           Rng rng(101);
                           for (int i = 0; i < 20000; ++i) {
                             // Squared sampling skews toward small ids.
                             const uint64_t r = rng.NextBounded(1000);
                             hk.InsertBasic(1 + (r * r) / 1000);
                           }
                         }});
  }

  {
    // Parallel discipline with a deterministic monitored/nmin schedule:
    // pins the Optimization II increment gate.
    HeavyKeeperConfig config;
    config.d = 3;
    config.w = 32;
    config.seed = 11;
    scenarios.push_back({"parallel_gate", config, [](HeavyKeeper& hk) {
                           Rng rng(103);
                           for (int i = 0; i < 12000; ++i) {
                             const FlowId id = 1 + rng.NextBounded(200);
                             hk.InsertParallel(id, (i % 3) == 0, i % 8);
                           }
                         }});
  }

  {
    // Minimum discipline: pins the match / first-empty / minimum-decay
    // priority and its single-bucket mutation rule.
    HeavyKeeperConfig config;
    config.d = 2;
    config.w = 16;
    config.seed = 13;
    scenarios.push_back({"minimum_decay", config, [](HeavyKeeper& hk) {
                           Rng rng(107);
                           for (int i = 0; i < 12000; ++i) {
                             const FlowId id = 1 + rng.NextBounded(120);
                             hk.InsertMinimum(id, (i % 2) == 0, i % 5);
                           }
                         }});
  }

  {
    // Section III-F expansion: tiny arrays, low threshold, several added
    // arrays; pins the stuck accounting and the expansion seed chain.
    HeavyKeeperConfig config;
    config.d = 1;
    config.w = 4;
    config.seed = 17;
    config.expansion_threshold = 16;
    config.max_arrays = 4;
    scenarios.push_back({"expansion", config, [](HeavyKeeper& hk) {
                           for (int i = 0; i < 3000; ++i) {
                             hk.InsertBasic(1 + (i % 4));  // entrench residents
                           }
                           Rng rng(109);
                           for (int i = 0; i < 4000; ++i) {
                             hk.InsertBasic(100 + rng.NextBounded(64));
                           }
                         }});
  }

  {
    // Narrow counters: pins saturation behaviour (the counter pegs at 63
    // and stays there while challengers decay against it).
    HeavyKeeperConfig config;
    config.d = 2;
    config.w = 8;
    config.seed = 19;
    config.counter_bits = 6;
    scenarios.push_back({"saturation", config, [](HeavyKeeper& hk) {
                           Rng rng(113);
                           for (int i = 0; i < 6000; ++i) {
                             const FlowId id = (i % 4 == 0) ? 1 + rng.NextBounded(40) : 3;
                             hk.InsertBasic(id);
                           }
                         }});
  }

  {
    // Weighted Basic insertion: pins the collapsed matching/empty cases and
    // the per-unit decay coin replay of the mismatch case.
    HeavyKeeperConfig config;
    config.d = 2;
    config.w = 32;
    config.seed = 23;
    config.counter_bits = 32;
    scenarios.push_back({"weighted_replay", config, [](HeavyKeeper& hk) {
                           Rng rng(127);
                           for (int i = 0; i < 4000; ++i) {
                             const FlowId id = 1 + rng.NextBounded(90);
                             hk.InsertBasicWeighted(
                                 id, 1 + static_cast<uint32_t>(rng.NextBounded(400)));
                           }
                         }});
  }

  {
    // Wide fingerprints + narrow arrays in a uint64 word regime (fp=32
    // forces 8-byte packed words after the slab refactor).
    HeavyKeeperConfig config;
    config.d = 2;
    config.w = 16;
    config.seed = 29;
    config.fingerprint_bits = 32;
    config.counter_bits = 32;
    scenarios.push_back({"wide_words", config, [](HeavyKeeper& hk) {
                           Rng rng(131);
                           for (int i = 0; i < 10000; ++i) {
                             hk.InsertBasic(1 + rng.NextBounded(300));
                           }
                         }});
  }

  return scenarios;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<size_t>(size));
  const bool ok = std::fread(out->data(), 1, out->size(), f) == out->size();
  std::fclose(f);
  return ok;
}

TEST(GoldenStateTest, PackedSlabReproducesPreRefactorStates) {
  const bool write = std::getenv("HK_WRITE_GOLDENS") != nullptr;
  for (const Scenario& scenario : Scenarios()) {
    HeavyKeeper sketch(scenario.config);
    scenario.stream(sketch);
    const std::string state = StateText(sketch);
    const std::string path = GoldenPath(scenario.name);
    if (write) {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr) << path;
      std::fwrite(state.data(), 1, state.size(), f);
      std::fclose(f);
      continue;
    }
    std::string golden;
    ASSERT_TRUE(ReadFile(path, &golden))
        << "missing golden " << path
        << " (record with HK_WRITE_GOLDENS=1 on the reference implementation)";
    EXPECT_EQ(state, golden) << scenario.name
                             << ": sketch state diverged from the recorded golden";
  }
}

// --- pipeline goldens -------------------------------------------------------
//
// The sketch goldens above pin the insertion disciplines on a bare sketch;
// these pin whole HeavyKeeperTopK pipelines - the sketch transition, the
// Optimization I/II admission logic and the lazy store's eviction
// tie-breaks - through their SaveState blobs. Each line of
// golden_pipelines.txt names a scenario and records the blob's size and
// FNV-1a 64 digest (the blobs themselves run to kilobytes each). Every
// scenario runs under simd=scalar and simd=auto, and both must produce the
// one recorded blob, so the file also pins the kernel bit-identity contract.
//
// Regenerating (only legitimate when the *semantics* deliberately change):
//   HK_WRITE_GOLDENS=1 ./hk_tests --gtest_filter='GoldenPipeline*'

struct PipelineScenario {
  std::string name;
  std::string spec;  // without the simd key
  size_t memory_bytes;
  size_t k;
  const std::vector<FlowId>* packets;
};

const std::vector<FlowId>& CampusPackets() {
  static const std::vector<FlowId> packets = MakeCampusTrace(60000, 41).packets;
  return packets;
}
const std::vector<FlowId>& CaidaPackets() {
  static const std::vector<FlowId> packets = MakeCaidaTrace(60000, 43).packets;
  return packets;
}
const std::vector<FlowId>& ZipfPackets() {
  static const std::vector<FlowId> packets = [] {
    ZipfTraceConfig config;
    config.num_packets = 60000;
    config.num_ranks = 20000;
    config.skew = 1.0;
    config.seed = 47;
    return MakeZipfTrace(config).packets;
  }();
  return packets;
}

std::vector<PipelineScenario> PipelineScenarios() {
  std::vector<PipelineScenario> scenarios;
  const std::pair<const char*, const std::vector<FlowId>*> streams[] = {
      {"campus", &CampusPackets()}, {"caida", &CaidaPackets()}, {"zipf", &ZipfPackets()}};
  for (const char* version : {"Basic", "Parallel", "Minimum"}) {
    for (const int d : {2, 4}) {
      const std::string spec = std::string("HK-") + version + ":d=" + std::to_string(d);
      const std::string prefix = std::string(version) + "_d" + std::to_string(d) + "_";
      // A few thousand flows against k = 32: the store fills within the
      // first packets and churns for the rest of the stream.
      for (const auto& [stream, packets] : streams) {
        scenarios.push_back({prefix + stream, spec, 8 * 1024, 32, packets});
      }
      // 8-bit fingerprints in ~50-bucket rows: colliding flows share
      // fingerprints often enough that the Optimization II gate blocks
      // matches, in the first lane and in later ones.
      scenarios.push_back({prefix + "fp8", spec + ",fp=8", 1024, 16, &CampusPackets()});
    }
  }
  return scenarios;
}

std::unique_ptr<TopKAlgorithm> MakePipeline(const PipelineScenario& s, const char* simd) {
  SketchDefaults defaults;
  defaults.memory_bytes = s.memory_bytes;
  defaults.k = s.k;
  defaults.seed = 5;
  return MakeSketch(s.spec + ",simd=" + simd, defaults);
}

std::string BlobLine(const std::string& name, const std::vector<uint8_t>& blob) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint8_t b : blob) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "%s %zu %016llx\n", name.c_str(), blob.size(),
                static_cast<unsigned long long>(h));
  return line;
}

std::string PipelineGoldenFile() { return std::string(HK_TEST_DATA_DIR) + "/golden_pipelines.txt"; }

TEST(GoldenPipelineTest, SaveStateMatchesRecordedBlobsUnderEveryKernel) {
  std::string scalar_text;
  std::string auto_text;
  for (const PipelineScenario& s : PipelineScenarios()) {
    for (const char* simd : {"scalar", "auto"}) {
      auto algo = MakePipeline(s, simd);
      // Odd-sized bursts so chunk boundaries do not line up with any
      // fixed stride of the stream.
      const std::vector<FlowId>& packets = *s.packets;
      for (size_t base = 0; base < packets.size(); base += 777) {
        const size_t n = std::min<size_t>(777, packets.size() - base);
        algo->InsertBatch(std::span<const FlowId>(packets.data() + base, n));
      }
      std::vector<uint8_t> blob;
      ASSERT_TRUE(algo->SaveState(&blob)) << s.name;
      (std::string(simd) == "scalar" ? scalar_text : auto_text) += BlobLine(s.name, blob);
    }
  }
  EXPECT_EQ(scalar_text, auto_text) << "simd=auto diverged from simd=scalar";
  const std::string path = PipelineGoldenFile();
  if (std::getenv("HK_WRITE_GOLDENS") != nullptr) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(scalar_text.data(), 1, scalar_text.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "rewrote " << path;
  }
  std::string golden;
  ASSERT_TRUE(ReadFile(path, &golden)) << "missing golden " << path;
  EXPECT_EQ(scalar_text, golden) << "a pipeline's SaveState diverged from the recorded golden";
}

// The fp=8, d=4 Minimum scenario must actually reach the gate's corner
// cases, or its golden pins nothing there: a packet whose first
// fingerprint-matching lane is blocked (count > nmin) - once for a tracked
// flow (the gate opens and that lane grows) and once for an untracked flow
// with a later open match (the later lane grows). Replays the stream one
// Insert() at a time, inspecting the mapped buckets before each packet, and
// checks the scalar replay lands on the batch run's golden blob.
TEST(GoldenPipelineTest, Fp8ScenarioReachesBlockedFirstLane) {
  PipelineScenario s;
  for (const PipelineScenario& c : PipelineScenarios()) {
    if (c.name == "Minimum_d4_fp8") {
      s = c;
    }
  }
  ASSERT_FALSE(s.name.empty());
  for (const char* simd : {"scalar", "auto"}) {
    auto algo = MakePipeline(s, simd);
    auto* pipeline = dynamic_cast<HeavyKeeperTopK<>*>(algo.get());
    ASSERT_NE(pipeline, nullptr);
    const HeavyKeeper& sketch = pipeline->sketch();
    size_t blocked_tracked = 0;
    size_t blocked_then_open = 0;
    for (const FlowId id : *s.packets) {
      // MinCount() here is the call the pipeline itself makes before the
      // sketch on a full store, so it does not perturb the lazy heap.
      if (pipeline->store().Full()) {
        const uint64_t nmin = pipeline->store().MinCount();
        const auto arrays = sketch.DebugDump();
        const uint32_t fp = sketch.FingerprintOf(id);
        int first = -1;
        bool later_open = false;
        for (size_t j = 0; j < arrays.size(); ++j) {
          const HeavyKeeper::Bucket& b = arrays[j][sketch.BucketIndex(j, id)];
          if (b.c == 0 || b.fp != fp) {
            continue;
          }
          if (first < 0) {
            first = b.c > nmin ? 1 : 0;
          } else if (first == 1 && b.c <= nmin) {
            later_open = true;
          }
        }
        if (first == 1) {
          if (pipeline->store().Contains(id)) {
            ++blocked_tracked;
          } else if (later_open) {
            ++blocked_then_open;
          }
        }
      }
      algo->Insert(id);
    }
    EXPECT_GT(blocked_tracked, 0u) << simd;
    EXPECT_GT(blocked_then_open, 0u) << simd;
    std::vector<uint8_t> blob;
    ASSERT_TRUE(algo->SaveState(&blob));
    std::string golden;
    ASSERT_TRUE(ReadFile(PipelineGoldenFile(), &golden));
    EXPECT_NE(golden.find(BlobLine(s.name, blob)), std::string::npos)
        << simd << ": the scalar Insert() replay diverged from the batch golden";
  }
}

}  // namespace
}  // namespace hk
