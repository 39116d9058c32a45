// The three workloads, their shared result type, and the per-layer ladder.
//
// A run repeats one measurement cycle until --seconds have passed: build a
// fresh instance, stream the whole generated input into it once, query it
// open-loop while it ingests, then score, checkpoint and tear it down. Each
// instance sees the input exactly once because the paper's 16-bit counters
// saturate at 65535, so streaming the same flows into one instance several
// times would score the counter width, not the algorithm. Per-cycle figures
// are reported as medians over the cycles, query latencies as percentiles
// over every query of every cycle.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "protocol.h"
#include "spans.h"

namespace perfbench {

// Correctness ceiling on the final top-100's average relative error. At
// these budgets HeavyKeeper reports the top 100 exactly (ARE 0), so any
// error at all means a broken estimate, not a less accurate sketch.
inline constexpr double kMaxAre = 0.01;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch files (capture, checkpoints, spans)
};

// Everything a run reports: named metrics with units, the run context,
// operation counts, and every correctness failure.
class Outcome {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);
  // Records a correctness failure when !ok.
  bool Check(bool ok, const std::string& what);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  const std::vector<std::pair<std::string, std::string>>& context() const { return context_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;  // value already JSON
  std::vector<std::string> failures_;
};

// One open-loop query stream on a connection of its own: `rate_hz`
// requests per second, request i sends lines[i % lines.size()]. A
// workload's first stream is the one its query latency metrics describe.
struct QueryStream {
  double rate_hz = 0.0;
  std::vector<std::string> lines;
};

// A workload served by an in-process ServeCore + LineServer and fed a
// capture over tcp:// (campus-serve, caida-window).
struct ServeWorkload {
  hk::ZipfTraceConfig config;
  hk::PcapKeyPolicy policy = hk::PcapKeyPolicy::kFiveTuple;
  std::string spec;        // CREATE spec
  std::string inner_spec;  // the per-packet sketch inside `spec`
  size_t memory_bytes = 0;
  size_t inner_memory_bytes = 0;  // budget of one inner instance
  uint64_t epoch_packets = 0;     // Window: workloads only
  uint64_t window_epochs = 0;
  std::string final_query;        // scored after drain
  std::vector<QueryStream> streams;
  double precision_floor = 0.0;
};

// The in-memory id workload (zipf-sharded).
struct ShardedWorkload {
  uint64_t packets = 0;
  double skew = 1.0;
  std::string spec;
  std::string inner_spec;
  size_t memory_bytes = 0;
  size_t inner_memory_bytes = 0;
  double snapshot_rate_hz = 100.0;
  size_t batch = 512;
  double precision_floor = 0.0;
};

ServeWorkload CampusServe(uint64_t seed);
ServeWorkload CaidaWindow(uint64_t seed);
ShardedWorkload ZipfSharded();

// What a run's cycles measured: per-cycle figures (medians are taken
// later), query latencies pooled over every cycle, and the registry
// before and after the run.
struct Cycles {
  std::vector<double> ingest_mpps, cpu_ns_per_pkt, setup_s, checkpoint_ms, precision, are;
  // Latencies of the workload's first query stream, the one its query
  // metrics describe, and of any further streams (caida-window's POINTs).
  // Verbs whose costs differ tenfold are not pooled: the median of such a
  // mixture sits between the two and jumps with their proportions.
  std::vector<double> query_us, side_query_us;
  std::vector<double> late_us;  // every stream
  // Resident growth over the first cycle, from just before the instance is
  // built to the end of its ingest, both read after malloc_trim so that
  // pages the allocator holds free count on neither side. Later cycles
  // are not comparable: they reuse fragments earlier instances left.
  double rss_mb = 0.0;
  uint64_t packets_sent = 0, queries = 0, query_failures = 0;
  double ingest_seconds = 0.0;
  double feed_bytes = 0.0, feed_seconds = 0.0;  // serve workloads
  double response_bytes = 0.0;                  // summed over TOPK responses
  uint64_t topk_responses = 0;
  std::string simd_kernel;
  MetricSamples before, after;  // serve: `after` is the METRICS verb's answer
};

// Which cycles checkpoint. A DRAM-sized state takes seconds to save, so a
// run spends at most a quarter of its time checkpointing: the final cycle
// always checkpoints, the cold first cycle never does unless it is also
// the final one, and any other cycle does when its checkpoint, costed like
// the previous one, keeps the run within that share.
class CheckpointBudget {
 public:
  explicit CheckpointBudget(Clock::time_point run_start) : run_start_(run_start) {}

  bool Due(uint64_t cycle, bool final_cycle, Clock::time_point now) const {
    return final_cycle ||
           (cycle >= 1 && spent_ + last_ <= 0.25 * SecondsBetween(run_start_, now));
  }
  void Spent(Clock::time_point start, Clock::time_point end) {
    last_ = SecondsBetween(start, end);
    spent_ += last_;
  }

 private:
  Clock::time_point run_start_;
  double spent_ = 0.0;
  double last_ = 0.0;
};

// Runs serve cycles for `seconds` (at least one). With `recorder` enabled,
// queries execute in-process through ServeCore::Execute inside spans, and
// every cycle ends with idle TOPK and PING probes; otherwise they go over
// TCP through the LineServer.
void RunServeCycles(const ServeWorkload& w, const CaptureInput& input, const RunOptions& run,
                    double seconds, SpanRecorder& recorder, Cycles* cycles, Outcome* out);

// Producer loop over `ids` into a fresh `spec` instance per cycle, with
// Snapshot(kRelaxed) on an open-loop schedule; spans around each
// InsertBatch, Flush and Snapshot when `recorder` is enabled.
void RunShardedCycles(const std::string& spec, size_t memory_bytes, hk::KeyKind key_kind,
                      const std::vector<hk::FlowId>& ids, const hk::Oracle& oracle,
                      double snapshot_rate_hz, size_t batch, double precision_floor,
                      const RunOptions& run, double seconds, SpanRecorder& recorder,
                      Cycles* cycles, Outcome* out);

// Per-layer probes on the workload's own input, recorded as spans (one per
// burst or per call): ingest read/next/parse/hash, a standalone inner
// instance, a standalone window ring, and the checkpoint steps.
struct LadderInput {
  const CaptureInput* capture = nullptr;
  std::string spec;              // the workload's full spec
  std::string inner_spec;
  size_t memory_bytes = 0;
  size_t inner_memory_bytes = 0;
  hk::KeyKind key_kind = hk::KeyKind::kSynthetic4B;
  std::string window_spec;       // standalone ring probed for window.*
};
void RunLadder(const LadderInput& in, const RunOptions& run, SpanRecorder& recorder,
               Outcome* out);

// Registry exposition rendered in-process (the same text METRICS returns).
MetricSamples ScrapeRegistry();

// Per-layer metrics from registry deltas: core.* and store.* (counts are
// per cycle, i.e. per pass of the input through a fresh instance) ...
void ReportCoreLayers(const Cycles& cycles, Outcome* out);
// ... and the ingest/serve series of one serve run's instance.
void ReportServeLayers(const Cycles& cycles, const std::string& instance, Outcome* out);

// Emits p50/p99 of a span name's durations as <metric>_p50/_p99.
void ReportSpanPercentiles(const std::map<std::string, SpanTotals>& totals,
                           const std::string& span, const std::string& metric, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
