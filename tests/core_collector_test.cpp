// Network-wide collection: per-switch top-k reports combined into one by
// MergeTopK (shard/merge.h) - kSumById for disjoint views, kMaxById for
// overlapping ones.
#include <gtest/gtest.h>

#include "core/hk_topk.h"
#include "metrics/accuracy.h"
#include "shard/merge.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

TEST(CollectorTest, SumPolicyAddsDisjointViews) {
  const std::vector<std::vector<FlowCount>> reports = {
      {{1, 100}, {2, 50}},
      {{1, 40}, {3, 70}},
  };
  const auto combined = MergeTopK(reports, 3, MergeMode::kSumById);
  ASSERT_EQ(combined.size(), 3u);
  EXPECT_EQ(combined[0], (FlowCount{1, 140}));
  EXPECT_EQ(combined[1], (FlowCount{3, 70}));
  EXPECT_EQ(combined[2], (FlowCount{2, 50}));
}

TEST(CollectorTest, MaxPolicyKeepsBestEstimate) {
  const std::vector<std::vector<FlowCount>> reports = {
      {{1, 100}, {2, 50}},
      {{1, 90}, {2, 80}},
  };
  const auto combined = MergeTopK(reports, 2, MergeMode::kMaxById);
  ASSERT_EQ(combined.size(), 2u);
  EXPECT_EQ(combined[0], (FlowCount{1, 100}));
  EXPECT_EQ(combined[1], (FlowCount{2, 80}));
}

TEST(CollectorTest, TruncatesToK) {
  const std::vector<std::vector<FlowCount>> reports = {{{1, 3}, {2, 2}, {3, 1}}};
  EXPECT_EQ(MergeTopK(reports, 2, MergeMode::kSumById).size(), 2u);
  EXPECT_TRUE(MergeTopK({}, 5, MergeMode::kSumById).empty());
}

TEST(CollectorTest, TieBrokenById) {
  const std::vector<std::vector<FlowCount>> reports = {{{9, 5}, {3, 5}, {7, 5}}};
  const auto combined = MergeTopK(reports, 3, MergeMode::kMaxById);
  EXPECT_EQ(combined[0].id, 3u);
  EXPECT_EQ(combined[1].id, 7u);
  EXPECT_EQ(combined[2].id, 9u);
}

// End-to-end network-wide scenario: traffic is sharded across three
// "switches" (disjoint views), each running its own HeavyKeeper; the
// collector's summed top-k must match the global ground truth.
TEST(CollectorTest, NetworkWideTopKFromShardedTraffic) {
  const Trace trace = MakeCampusTrace(300000, 11);
  Oracle oracle(trace);
  constexpr size_t kSwitches = 3;
  constexpr size_t kK = 50;

  std::vector<std::unique_ptr<HeavyKeeperTopK<>>> switches;
  for (size_t s = 0; s < kSwitches; ++s) {
    switches.push_back(
        HeavyKeeperTopK<>::FromMemory(HkVersion::kMinimum, 40 * 1024, 2 * kK, 13, s + 1));
  }
  // Shard deterministically by flow id (as an ECMP-style splitter would).
  for (const FlowId id : trace.packets) {
    switches[id % kSwitches]->Insert(id);
  }

  std::vector<std::vector<FlowCount>> reports;
  for (const auto& sw : switches) {
    reports.push_back(sw->TopK(2 * kK));
  }
  const auto combined = MergeTopK(reports, kK, MergeMode::kSumById);
  const auto accuracy = EvaluateTopK(combined, oracle, kK);
  EXPECT_GE(accuracy.precision, 0.9);
  EXPECT_LE(accuracy.are, 0.05);
}

// Overlapping-view scenario: every switch sees the same packets (a mirrored
// tap); kMax must not double-count.
TEST(CollectorTest, MirroredViewsUseMax) {
  const Trace trace = MakeCampusTrace(100000, 13);
  Oracle oracle(trace);
  constexpr size_t kK = 20;

  std::vector<std::vector<FlowCount>> reports;
  for (size_t s = 0; s < 2; ++s) {
    auto sw = HeavyKeeperTopK<>::FromMemory(HkVersion::kMinimum, 40 * 1024, kK, 13, s + 1);
    for (const FlowId id : trace.packets) {
      sw->Insert(id);
    }
    reports.push_back(sw->TopK(kK));
  }
  const auto combined = MergeTopK(reports, kK, MergeMode::kMaxById);
  const auto accuracy = EvaluateTopK(combined, oracle, kK);
  EXPECT_GE(accuracy.precision, 0.9);
  // No over-estimation: max of two no-overestimate views stays below truth.
  for (const auto& fc : combined) {
    EXPECT_LE(fc.count, oracle.Count(fc.id));
  }
}

}  // namespace
}  // namespace hk
