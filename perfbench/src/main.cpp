// hk_perfbench: the end-to-end benchmark program that perfbench/run.py runs.
//
//   hk_perfbench --workload campus-serve|caida-window|zipf-sharded --seed N
//                --seconds S --trace 0|1 --workdir DIR [--git-sha SHA]
//
// Prints one JSON line with the run context, then the result line
// {"correct", "attempted", "failed", "metrics"}: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Exits 1 when a
// correctness check failed, 2 on bad arguments.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "shard/partition.h"
#include "telemetry/telemetry.h"
#include "trace/generators.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

constexpr uint32_t kSnaplen = 96;
constexpr const char* kShardProbeSpec = "Sharded:n=2,threads=1,inner=";
// How long the probes of bypassed layers run, in cycles of their own.
constexpr double kProbeSeconds = 2.0;

// The end-to-end metrics of one untraced run.
void ReportEndToEnd(const Cycles& c, Outcome* out) {
  out->Set("ingest_mpps", Median(c.ingest_mpps), "Mpkt/s");
  out->Set("cpu_ns_per_pkt", Median(c.cpu_ns_per_pkt), "ns");
  out->Set("query_p50_us", Median(c.query_us), "us");
  out->Set("precision", Median(c.precision), "ratio");
  out->Set("checkpoint_ms", Median(c.checkpoint_ms), "ms");
  out->Set("setup_s", Median(c.setup_s), "s");
  out->Set("rss_mb", c.rss_mb, "MB");
  // Reported in the context, not as bounded metrics. The query tail swings
  // several-fold between identical runs on a shared host (steal bursts
  // last seconds), and ARE reads exactly 0 on every workload; neither has
  // a spread a bound could hold. ARE is still gated (kMaxAre).
  const Tail tail = TailPercentile(c.query_us, 99.0);
  out->Context("query_p99_us", tail.value);
  if (!c.side_query_us.empty()) {
    out->Context("side_query_p50_us", Median(c.side_query_us));
    out->Context("side_query_p99_us", TailPercentile(c.side_query_us, 99.0).value);
  }
  out->Context("are", Median(c.are));
  out->Context("cycles", static_cast<double>(c.ingest_mpps.size()));
  out->Context("checkpoints", static_cast<double>(c.checkpoint_ms.size()));
  out->Context("query_samples", static_cast<double>(tail.samples));
  out->Context("query_tail_pct", tail.pct);
  out->Context("query_tail_qualified", tail.qualified ? "yes" : "no");
  out->Check(tail.qualified, "too few query samples for a tail percentile");
}

void CountOps(const Cycles& c, Outcome* out) {
  out->attempted += c.packets_sent + c.queries;
  out->failed += c.query_failures;
}

double PartitionSkew(const std::vector<hk::FlowId>& ids, size_t shards) {
  const hk::ShardPartitioner partitioner(shards);
  std::vector<double> counts(shards, 0.0);
  for (const hk::FlowId id : ids) {
    counts[partitioner.ShardOf(id)] += 1.0;
  }
  double max = 0.0;
  for (const double c : counts) {
    max = std::max(max, c);
  }
  return max / (static_cast<double>(ids.size()) / static_cast<double>(shards));
}

// Shard-layer metrics from the spans of a traced producer loop.
void ReportShardLayers(const std::map<std::string, SpanTotals>& totals, double packets,
                       const std::vector<hk::FlowId>& ids, Outcome* out) {
  const auto it = totals.find("shard.enqueue");
  out->Set("shard.enqueue_ns_per_pkt", it == totals.end() ? 0.0 : it->second.self_ns / packets,
           "ns");
  ReportSpanPercentiles(totals, "shard.flush", "shard.flush_us", out);
  out->Set("shard.ring_highwater",
           SampleValue(ScrapeRegistry(), "hk_ring_occupancy_highwater{ring=\"sharded\"}"),
           "packets");
  out->Set("shard.partition_skew", PartitionSkew(ids, 2), "ratio");
}

void ReportLoadgenLate(const Cycles& c, Outcome* out) {
  out->Set("loadgen.late_p99_us", TailPercentile(c.late_us, 99.0).value, "us");
}

std::string WindowProbeSpec(const std::string& inner, uint64_t packets) {
  return "Window:w=8,epoch=" + std::to_string(packets / 16) + ",inner=" + inner;
}

void RunServeWorkload(const ServeWorkload& w, const RunOptions& run, SpanRecorder& recorder,
                      Outcome* out) {
  CaptureInput cap;
  std::string err;
  if (!out->Check(MakeCaptureInput(w.config, w.policy, kSnaplen, run.workdir, &cap, &err),
                  err)) {
    return;
  }
  out->Context("packets_per_cycle", static_cast<double>(cap.ids.size()));
  out->Context("capture_bytes_per_pkt",
               static_cast<double>(cap.bytes.size()) / static_cast<double>(cap.ids.size()));
  SpanRecorder untraced(false);
  if (!run.trace) {
    Cycles c;
    RunServeCycles(w, cap, run, run.seconds, untraced, &c, out);
    ReportEndToEnd(c, out);
    CountOps(c, out);
    out->Context("simd_kernel", c.simd_kernel);
    return;
  }
  // Traced run: an untraced half for the counters and the overhead base,
  // a traced half with spans, then the shard probe and the ladder.
  Cycles base;
  RunServeCycles(w, cap, run, run.seconds / 2, untraced, &base, out);
  ReportCoreLayers(base, out);
  ReportServeLayers(base, "bench", out);
  ReportLoadgenLate(base, out);
  // Rotations per cycle of the workload's own ring (caida-window).
  const double workload_rotations = (SampleValue(base.after, "hk_window_rotations_total") -
                                     SampleValue(base.before, "hk_window_rotations_total")) /
                                    static_cast<double>(base.ingest_mpps.size());
  Cycles traced;
  RunServeCycles(w, cap, run, run.seconds / 2, recorder, &traced, out);
  out->Set("trace.overhead", Median(traced.ingest_mpps) / Median(base.ingest_mpps), "ratio");
  CountOps(base, out);
  CountOps(traced, out);

  Cycles shard_probe;
  RunShardedCycles(kShardProbeSpec + w.inner_spec, w.memory_bytes, hk::ToKeyKind(w.policy),
                   cap.ids, cap.oracle, 100.0, 512, 0.0, run, kProbeSeconds, recorder,
                   &shard_probe, out);
  CountOps(shard_probe, out);

  std::map<std::string, SpanTotals> totals = Summarize(recorder.spans());
  ReportSpanPercentiles(totals, "serve.execute", "serve.execute_us", out);
  out->Set("serve.topk_idle_us_p50", Median(totals["serve.topk_idle"].durations_us), "us");
  ReportSpanPercentiles(totals, "net.ping", "net.ping_rtt_us", out);
  ReportShardLayers(totals, static_cast<double>(shard_probe.packets_sent), cap.ids, out);

  LadderInput ladder;
  ladder.capture = &cap;
  ladder.spec = w.spec;
  ladder.inner_spec = w.inner_spec;
  ladder.memory_bytes = w.memory_bytes;
  ladder.inner_memory_bytes = w.inner_memory_bytes;
  ladder.key_kind = hk::ToKeyKind(w.policy);
  ladder.window_spec = w.window_epochs > 0 ? w.spec : WindowProbeSpec(w.inner_spec, cap.ids.size());
  RunLadder(ladder, run, recorder, out);
  if (w.window_epochs > 0) {
    // The workload's own ring replaces the standalone probe's count.
    out->Set("window.rotations", workload_rotations, "count");
  }
  out->Context("simd_kernel", base.simd_kernel);
}

void RunZipfWorkload(const ShardedWorkload& w, const RunOptions& run, SpanRecorder& recorder,
                     Outcome* out) {
  hk::Trace trace = hk::MakeSyntheticTrace(w.packets, w.skew, run.seed);
  hk::Oracle oracle(trace);
  out->Context("packets_per_cycle", static_cast<double>(trace.num_packets()));
  SpanRecorder untraced(false);
  const auto cycles = [&](double seconds, SpanRecorder& rec, Cycles* c) {
    RunShardedCycles(w.spec, w.memory_bytes, hk::KeyKind::kSynthetic4B, trace.packets, oracle,
                     w.snapshot_rate_hz, w.batch, w.precision_floor, run, seconds, rec, c, out);
    CountOps(*c, out);
  };
  if (!run.trace) {
    Cycles c;
    cycles(run.seconds, untraced, &c);
    ReportEndToEnd(c, out);
    out->Context("simd_kernel", c.simd_kernel);
    return;
  }
  Cycles base;
  cycles(run.seconds / 2, untraced, &base);
  ReportCoreLayers(base, out);
  ReportLoadgenLate(base, out);
  Cycles traced;
  cycles(run.seconds / 2, recorder, &traced);
  out->Set("trace.overhead", Median(traced.ingest_mpps) / Median(base.ingest_mpps), "ratio");
  std::map<std::string, SpanTotals> totals = Summarize(recorder.spans());
  ReportShardLayers(totals, static_cast<double>(traced.packets_sent), trace.packets, out);
  // The probes below do not use the id stream; release it and its oracle.
  trace = hk::Trace();
  oracle = hk::Oracle();

  // This workload bypasses capture ingest and serving. Those layers are
  // probed on the same Zipf population carried in a capture (4-byte keys
  // as source addresses), served through hk_serve with this spec.
  hk::ZipfTraceConfig config;
  config.num_packets = 500'000;
  config.num_ranks = static_cast<uint64_t>(config.num_packets * 0.31);
  config.skew = w.skew;
  config.max_flow_size = 60'000;
  config.key_kind = hk::KeyKind::kSynthetic4B;
  config.seed = run.seed;
  CaptureInput cap;
  std::string err;
  if (!out->Check(MakeCaptureInput(config, hk::PcapKeyPolicy::kSrcOnly, kSnaplen, run.workdir,
                                   &cap, &err),
                  err)) {
    return;
  }
  ServeWorkload probe;
  probe.policy = hk::PcapKeyPolicy::kSrcOnly;
  probe.spec = w.spec;
  probe.inner_spec = w.inner_spec;
  probe.memory_bytes = w.memory_bytes;
  probe.inner_memory_bytes = w.inner_memory_bytes;
  probe.final_query = "TOPK 100 exact";
  probe.streams = {QueryStream{200.0, {"TOPK 100"}}};
  Cycles serve_probe;
  RunServeCycles(probe, cap, run, kProbeSeconds, recorder, &serve_probe, out);
  CountOps(serve_probe, out);
  ReportServeLayers(serve_probe, "bench", out);
  totals = Summarize(recorder.spans());
  ReportSpanPercentiles(totals, "serve.execute", "serve.execute_us", out);
  out->Set("serve.topk_idle_us_p50", Median(totals["serve.topk_idle"].durations_us), "us");
  ReportSpanPercentiles(totals, "net.ping", "net.ping_rtt_us", out);

  LadderInput ladder;
  ladder.capture = &cap;
  ladder.spec = w.spec;
  ladder.inner_spec = w.inner_spec;
  ladder.memory_bytes = w.memory_bytes;
  ladder.inner_memory_bytes = w.inner_memory_bytes;
  ladder.key_kind = hk::KeyKind::kSynthetic4B;
  ladder.window_spec = WindowProbeSpec(w.inner_spec, cap.ids.size());
  RunLadder(ladder, run, recorder, out);
  out->Context("simd_kernel", base.simd_kernel);
  out->Context("bypassed_layers_probed_on", "capture of the same Zipf population");
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) {
    v = v > 0 ? 1e300 : 0.0;
  }
  std::printf("%.17g", v);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "hk_perfbench: %s\nusage: hk_perfbench --workload campus-serve|caida-window|"
               "zipf-sharded --seed N --seconds S --trace 0|1 --workdir DIR [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

void Outcome::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, JsonString(value));
}

void Outcome::Context(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  context_.emplace_back(key, buf);
}

bool Outcome::Check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
  return ok;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions run;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      run.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      run.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      run.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      run.trace = value == "1";
    } else if (key == "--workdir") {
      run.workdir = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed value for " + key).c_str());
    }
  }
  if (!have_workload || run.workdir.empty() || run.seconds <= 0.0) {
    return Usage("--workload, --workdir and a positive --seconds are required");
  }
  if (run.workload != "campus-serve" && run.workload != "caida-window" &&
      run.workload != "zipf-sharded") {
    return Usage(("unknown workload " + run.workload).c_str());
  }
  std::signal(SIGPIPE, SIG_IGN);
  ::mkdir(run.workdir.c_str(), 0755);

  Outcome out;
  out.Context("workload", run.workload);
  out.Context("seed", static_cast<double>(run.seed));
  out.Context("seconds", run.seconds);
  out.Context("trace", run.trace ? 1.0 : 0.0);
  out.Context("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out.Context("build_type", PERFBENCH_BUILD_TYPE);
  out.Context("telemetry", hk::telemetry::Registry::Enabled() ? "on" : "off");
  out.Context("git_sha", git_sha);
  out.Context("link", "loopback");

  SpanRecorder recorder(run.trace);
  if (run.workload == "zipf-sharded") {
    RunZipfWorkload(ZipfSharded(), run, recorder, &out);
  } else {
    RunServeWorkload(run.workload == "campus-serve" ? CampusServe(run.seed)
                                                    : CaidaWindow(run.seed),
                     run, recorder, &out);
  }
  if (run.trace) {
    const std::string path = run.workdir + "/spans.jsonl";
    out.Check(recorder.WriteJsonLines(path), "could not write " + path);
    out.Context("spans_file", path);
    out.Context("spans", static_cast<double>(recorder.spans().size()));
  }
  out.Context("peak_rss_mb", static_cast<double>(PeakResidentBytes()) / (1024.0 * 1024.0));
  const bool correct = out.failures().empty();
  for (const std::string& failure : out.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  std::printf("{\"context\": {");
  bool first = true;
  for (const auto& [key, value] : out.context()) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", key.c_str(), value.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  first = true;
  for (const auto& [name, metric] : out.metrics()) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintJsonNumber(metric.first);
    std::printf(", \"unit\": \"%s\"}", metric.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
