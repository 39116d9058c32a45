// Tests of the benchmark's own measurement code: the tail-percentile rule,
// open-loop due-time accounting, span self-time arithmetic, response
// parsing, and oracle scoring on a tiny capture with known answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ingest/pcap_reader.h"
#include "ingest/pcap_writer.h"
#include "inputs.h"
#include "protocol.h"
#include "spans.h"
#include "stats.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

TEST(TailPercentileTest, ReportsP99WhenTenSamplesLieBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  const Tail tail = TailPercentile(OneTo(1000), 99.0);
  EXPECT_EQ(tail.pct, 99.0);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_TRUE(tail.qualified);
}

TEST(TailPercentileTest, FallsBackWhenTooFewSamplesLieBeyond) {
  // 999 samples leave only 9 beyond p99, so p95 is the highest reportable.
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  const Tail tail = TailPercentile(OneTo(999), 99.0);
  EXPECT_EQ(tail.pct, 95.0);
  EXPECT_EQ(tail.value, 950.0);
  EXPECT_TRUE(tail.qualified);
}

TEST(TailPercentileTest, NeverExceedsTheRequestedPercentile) {
  const Tail tail = TailPercentile(OneTo(100000), 99.0);
  EXPECT_EQ(tail.pct, 99.0);
  EXPECT_EQ(TailPercentile(OneTo(100000), 99.9).pct, 99.9);
}

TEST(TailPercentileTest, MarksTooSmallSamplesUnqualified) {
  const Tail tail = TailPercentile(OneTo(15), 99.0);
  EXPECT_EQ(tail.pct, 50.0);
  EXPECT_FALSE(tail.qualified);
  EXPECT_FALSE(TailPercentile({}, 99.0).qualified);
}

TEST(TailPercentileTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = OneTo(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(TailPercentile(v, 99.0).value, 1980.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

// Runs an open loop at 1 kHz for 60 ms of schedule; request `stall_at`
// (if any) takes `stall_ms`.
std::unique_ptr<OpenLoop> RunLoop(int stall_at, int stall_ms) {
  const Clock::time_point origin = Clock::now();
  auto loop = std::make_unique<OpenLoop>(origin, 1000.0);
  loop->RequestStop(origin + std::chrono::milliseconds(60));
  loop->Run([&](uint64_t i) {
    if (static_cast<int>(i) == stall_at) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
    return i % 7 != 6;  // every seventh request fails
  });
  return loop;
}

TEST(OpenLoopTest, StallRaisesLatencyButKeepsTheSampleCount) {
  const std::unique_ptr<OpenLoop> steady_loop = RunLoop(-1, 0);
  const std::unique_ptr<OpenLoop> stalled_loop = RunLoop(5, 40);
  const OpenLoop& steady = *steady_loop;
  const OpenLoop& stalled = *stalled_loop;
  // Every slot due before the stop time is issued, stall or not.
  EXPECT_EQ(steady.issued(), 60u);
  EXPECT_EQ(stalled.issued(), 60u);
  EXPECT_EQ(stalled.failed(), 60u / 7);
  // Requests queued behind the stall are charged from their due time: the
  // next one waited ~39 ms, and the backlog drains over later requests.
  EXPECT_GE(stalled.latencies_us()[6], 30'000.0);
  EXPECT_GE(stalled.late_us()[6], 30'000.0);
  EXPECT_GE(stalled.latencies_us()[20], 15'000.0);
  EXPECT_LT(steady.latencies_us()[6], 10'000.0);
  EXPECT_GT(Median(stalled.latencies_us()), Median(steady.latencies_us()));
}

TEST(OpenLoopTest, StopTimeBoundsTheSchedule) {
  const Clock::time_point origin = Clock::now();
  OpenLoop loop(origin, 100.0);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(35));
    loop.RequestStop(origin + std::chrono::milliseconds(35));
  });
  loop.Run([](uint64_t) { return true; });
  stopper.join();
  EXPECT_EQ(loop.issued(), 4u);  // due at 0, 10, 20 and 30 ms
}

Span MakeSpan(int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildrenClippedToTheParent) {
  std::vector<Span> spans = {
      MakeSpan(0, 100, -1),   // 0: parent
      MakeSpan(10, 30, 0),    // 1: child
      MakeSpan(20, 50, 0),    // 2: overlaps child 1 -> union [10, 50]
      MakeSpan(90, 120, 0),   // 3: runs past the parent -> clipped to [90, 100]
      MakeSpan(15, 25, 1),    // 4: grandchild: counts against span 1 only
  };
  const std::vector<double> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100.0 - 40.0 - 10.0);
  EXPECT_EQ(self[1], 20.0 - 10.0);
  EXPECT_EQ(self[2], 30.0);
  EXPECT_EQ(self[3], 30.0);
  EXPECT_EQ(self[4], 10.0);
}

TEST(SpanTest, SummarizeTotalsPerName) {
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 30, 0), MakeSpan(200, 260, -1)};
  spans[1].name = "child";
  const auto totals = Summarize(spans);
  EXPECT_EQ(totals.at("x").count, 2u);
  EXPECT_EQ(totals.at("x").total_ns, 160.0);
  EXPECT_EQ(totals.at("x").self_ns, 140.0);
  EXPECT_EQ(totals.at("child").self_ns, 20.0);
  EXPECT_EQ(totals.at("x").durations_us.size(), 2u);
}

TEST(SpanTest, RecorderNestsAndDisabledRecorderRecordsNothing) {
  SpanRecorder on(true);
  {
    ScopedSpan parent(on, "parent", -1, 7);
    ScopedSpan child(on, "child", parent.index(), 7);
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request_id, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);

  SpanRecorder off(false);
  {
    ScopedSpan span(off, "parent");
    EXPECT_EQ(span.index(), -1);
  }
  EXPECT_TRUE(off.spans().empty());
}

TEST(ProtocolTest, ParsesAWellFormedTopKAnswer) {
  TopKResponse r;
  std::string err;
  ASSERT_TRUE(ParseTopK("FLOW a 9\nFLOW 1f 9\nFLOW 3 2\nEND consistency=exact tracked=3 min=2\n",
                        3, "exact", false, &r, &err))
      << err;
  ASSERT_EQ(r.flows.size(), 3u);
  EXPECT_EQ(r.flows[1].id, 0x1fu);
  EXPECT_EQ(r.flows[2].count, 2u);
  ASSERT_TRUE(ParseTopK("FLOW a 9\nEND consistency=exact tracked=1 min=9 window=8 "
                        "epoch_packets=10 completed_epochs=12\n",
                        3, "exact", true, &r, &err))
      << err;
  EXPECT_EQ(r.completed_epochs, 12u);
}

TEST(ProtocolTest, RejectsMalformedTopKAnswers) {
  TopKResponse r;
  std::string err;
  const std::string end = "END consistency=exact\n";
  EXPECT_FALSE(ParseTopK("FLOW a 1\nFLOW b 2\n" + end, 5, "exact", false, &r, &err));
  EXPECT_FALSE(ParseTopK("FLOW a 3\nFLOW b 2\nFLOW c 1\n" + end, 2, "exact", false, &r, &err));
  EXPECT_FALSE(ParseTopK("FLOW a 3\n", 5, "exact", false, &r, &err));
  EXPECT_FALSE(ParseTopK("FLOW a 3\nEND consistency=relaxed\n", 5, "exact", false, &r, &err));
  EXPECT_FALSE(ParseTopK("FLOW zz 3\n" + end, 5, "exact", false, &r, &err));
  EXPECT_FALSE(ParseTopK("FLOW a -3\n" + end, 5, "exact", false, &r, &err));
  EXPECT_FALSE(ParseTopK(end + "FLOW a 3\n", 5, "exact", false, &r, &err));
  EXPECT_FALSE(ParseTopK("ERR no instance\n", 5, "exact", false, &r, &err));
  EXPECT_FALSE(ParseTopK(end, 5, "exact", true, &r, &err));  // window fields missing
}

TEST(ProtocolTest, HistogramPercentileUsesBucketDeltas) {
  const std::string labels = "verb=\"TOPK\"";
  const auto exposition = [&](int b1, int b3, int b7, int inf) {
    return "h_bucket{" + labels + ",le=\"1\"} " + std::to_string(b1) + "\nh_bucket{" + labels +
           ",le=\"3\"} " + std::to_string(b3) + "\nh_bucket{" + labels + ",le=\"7\"} " +
           std::to_string(b7) + "\nh_bucket{" + labels + ",le=\"+Inf\"} " +
           std::to_string(inf) + "\n";
  };
  const MetricSamples before = ParsePrometheus(exposition(5, 5, 5, 5));
  const MetricSamples after = ParsePrometheus(exposition(5, 15, 104, 105) + "END\n");
  // Deltas: 0 at <=1, 10 at <=3, 99 at <=7, 100 in total.
  EXPECT_EQ(HistogramPercentile(before, after, "h", labels, 10.0), 3.0);
  EXPECT_EQ(HistogramPercentile(before, after, "h", labels, 50.0), 7.0);
  EXPECT_TRUE(std::isinf(HistogramPercentile(before, after, "h", labels, 100.0)));
  EXPECT_EQ(SampleValue(after, "h_bucket{" + labels + ",le=\"3\"}"), 15.0);
}

// A capture with four flows of 5, 3, 2 and 1 packets, read back through
// PcapReader so the oracle holds the ids the reader derives.
class TinyCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/perfbench_tiny.pcap";
    hk::PcapWriter writer;
    ASSERT_TRUE(writer.Open(path_));
    const int sizes[] = {5, 3, 2, 1};
    for (int flow = 0; flow < 4; ++flow) {
      hk::FiveTuple t;
      t.src_ip = 0x0a000001u + static_cast<uint32_t>(flow);
      t.dst_ip = 0x0a0000ffu;
      t.src_port = 1000;
      t.dst_port = 80;
      t.proto = 6;
      for (int p = 0; p < sizes[flow]; ++p) {
        ASSERT_TRUE(writer.Write(t, 1000u * static_cast<uint64_t>(p), 100));
      }
    }
    ASSERT_TRUE(writer.Close());
    hk::PcapReader reader(hk::PcapKeyPolicy::kFiveTuple);
    ASSERT_TRUE(reader.Open(path_));
    hk::PacketRecord record;
    while (reader.Next(&record)) {
      ids_.push_back(record.id);
      oracle_.Add(record.id);
    }
    std::remove(path_.c_str());
    ASSERT_EQ(ids_.size(), 11u);
    a_ = ids_[0];
    b_ = ids_[5];
    c_ = ids_[8];
    d_ = ids_[10];
  }

  std::string path_;
  std::vector<hk::FlowId> ids_;
  hk::Oracle oracle_;
  hk::FlowId a_ = 0, b_ = 0, c_ = 0, d_ = 0;
};

TEST_F(TinyCaptureTest, ExactAnswerScoresPrecisionOneAndZeroError) {
  const TopKTruth truth(oracle_, 2);
  const Accuracy acc = truth.Score({{a_, 5}, {b_, 3}});
  EXPECT_EQ(acc.precision, 1.0);
  EXPECT_EQ(acc.are, 0.0);
  EXPECT_EQ(acc.reported, 2u);
}

TEST_F(TinyCaptureTest, WrongMemberAndEstimateErrorsAreScored) {
  const TopKTruth truth(oracle_, 2);
  // c is not in the top 2 (2 < 3); a is underestimated by 1/5.
  Accuracy acc = truth.Score({{a_, 4}, {c_, 2}});
  EXPECT_EQ(acc.precision, 0.5);
  EXPECT_DOUBLE_EQ(acc.are, (1.0 / 5.0 + 0.0) / 2.0);
  // A flow the capture never held counts its whole estimate as error.
  acc = truth.Score({{a_, 5}, {0x1234, 3}});
  EXPECT_EQ(acc.precision, 0.5);
  EXPECT_DOUBLE_EQ(acc.are, 1.5);
  // Reports beyond k are ignored; a short report lowers precision only.
  acc = truth.Score({{a_, 5}});
  EXPECT_EQ(acc.precision, 0.5);
  EXPECT_EQ(acc.are, 0.0);
  EXPECT_EQ(truth.Score({{a_, 5}, {b_, 3}, {d_, 1}}).reported, 2u);
}

TEST_F(TinyCaptureTest, TiesAtTheKthSizeCountAsCorrect) {
  hk::Oracle tied = oracle_;
  tied.Add(d_, 2);  // d now has 3 packets, tying b at the 2nd size
  const TopKTruth truth(tied, 2);
  EXPECT_EQ(truth.Score({{a_, 5}, {d_, 3}}).precision, 1.0);
  // k larger than the flow count shrinks to the flow count.
  EXPECT_EQ(TopKTruth(oracle_, 10).Score({{a_, 5}, {b_, 3}, {c_, 2}, {d_, 1}}).precision, 1.0);
}

TEST_F(TinyCaptureTest, SlidingWindowOracleCountsOnlyLivePositions) {
  // Epochs of 2 packets, W = 3: after 5 completed epochs the ring holds
  // epochs 3 and 4 plus the partial epoch 5, i.e. positions [6, 11).
  EXPECT_EQ(WindowStart(5, 2, 3), 6u);
  EXPECT_EQ(WindowStart(1, 2, 3), 0u);
  const hk::Oracle live = RangeOracle(ids_, WindowStart(5, 2, 3), ids_.size());
  EXPECT_EQ(live.total_packets(), 5u);
  EXPECT_EQ(live.Count(a_), 0u);
  EXPECT_EQ(live.Count(b_), 2u);
  EXPECT_EQ(live.Count(c_), 2u);
  EXPECT_EQ(live.Count(d_), 1u);
}

TEST(CaptureInputTest, SynthesizedCaptureParsesToTheGeneratedTrace) {
  CaptureInput input;
  std::string err;
  const hk::ZipfTraceConfig config = hk::CampusConfig(5000, 3);
  ASSERT_TRUE(MakeCaptureInput(config, hk::PcapKeyPolicy::kFiveTuple, 96, ::testing::TempDir(),
                               &input, &err))
      << err;
  EXPECT_EQ(input.ids, hk::MakeZipfTrace(config).packets);
  EXPECT_EQ(input.oracle.total_packets(), input.ids.size());
}

}  // namespace
}  // namespace perfbench
