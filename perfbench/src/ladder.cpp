// The per-layer side of the traced run: standalone probes that replay the
// workload's capture through each layer's public functions in the burst
// shape the serve ingest loop uses, plus the readers that turn registry
// deltas into layer metrics.
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>

#include "ingest/byte_source.h"
#include "ingest/pcap_reader.h"
#include "serve/checkpoint.h"
#include "sketch/registry.h"
#include "telemetry/telemetry.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kBurst = 512;  // ServeOptions::ingest_batch
constexpr size_t kTopK = 100;
constexpr size_t kReadChunk = 256 * 1024;  // PcapReader's streaming refill size
constexpr int kLadderPasses = 2;
constexpr int kEstimateCalls = 200;
constexpr size_t kEstimateIds = 1024;
constexpr int kWindowSnapshots = 1000;
constexpr int kCheckpointReps = 5;

double Delta(const MetricSamples& before, const MetricSamples& after, const std::string& series) {
  return SampleValue(after, series) - SampleValue(before, series);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double SelfNs(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_ns;
}

double MedianDuration(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : Median(it->second.durations_us);
}

void FeedAll(hk::TopKAlgorithm& algo, const std::vector<hk::FlowId>& ids) {
  for (size_t off = 0; off < ids.size(); off += kBurst) {
    algo.InsertBatch(
        std::span<const hk::FlowId>(ids.data() + off, std::min(kBurst, ids.size() - off)));
  }
}

}  // namespace

MetricSamples ScrapeRegistry() {
  return ParsePrometheus(hk::telemetry::Registry::Get().RenderPrometheus());
}

void ReportCoreLayers(const Cycles& cycles, Outcome* out) {
  const MetricSamples& before = cycles.before;
  const MetricSamples& after = cycles.after;
  const double kpkt = Delta(before, after, "hk_core_packets_total") / 1000.0;
  const double passes = static_cast<double>(cycles.ingest_mpps.size());
  const double attempts = Delta(before, after, "hk_core_decay_attempts_total");
  out->Set("core.decay_attempts_per_kpkt", Ratio(attempts, kpkt), "1/kpkt");
  out->Set("core.decay_success_ratio",
           Ratio(Delta(before, after, "hk_core_decay_success_total"), attempts), "ratio");
  out->Set("core.expansions", Ratio(Delta(before, after, "hk_core_expansions_total"), passes),
           "count");
  const std::string lazy = "{store=\"lazy\"}";
  out->Set("store.admissions_per_kpkt",
           Ratio(Delta(before, after, "hk_store_admissions_total" + lazy), kpkt), "1/kpkt");
  out->Set("store.evictions_per_kpkt",
           Ratio(Delta(before, after, "hk_store_evictions_total" + lazy), kpkt), "1/kpkt");
  out->Set("store.root_resyncs",
           Ratio(Delta(before, after, "hk_store_root_resyncs_total" + lazy), passes), "count");
}

void ReportServeLayers(const Cycles& cycles, const std::string& instance, Outcome* out) {
  const std::string label = "{instance=\"" + instance + "\"}";
  const double wait_us =
      Delta(cycles.before, cycles.after, "hk_ingest_source_wait_us_total" + label);
  out->Set("ingest.source_wait_share", Ratio(wait_us, cycles.ingest_seconds * 1e6), "ratio");
  out->Set("ingest.burst_packets_p50",
           HistogramPercentile(cycles.before, cycles.after, "hk_ingest_burst_packets", "", 50.0),
           "packets");
  out->Set("serve.request_us_p99",
           HistogramPercentile(cycles.before, cycles.after, "hk_serve_request_us",
                               "verb=\"TOPK\"", 99.0),
           "us");
  out->Set("net.response_bytes",
           Ratio(cycles.response_bytes, static_cast<double>(cycles.topk_responses)), "bytes");
  out->Set("loadgen.feed_mb_s", Ratio(cycles.feed_bytes / 1e6, cycles.feed_seconds), "MB/s");
}

void ReportSpanPercentiles(const std::map<std::string, SpanTotals>& totals,
                           const std::string& span, const std::string& metric, Outcome* out) {
  const auto it = totals.find(span);
  std::vector<double> durations;
  if (it != totals.end()) {
    durations = it->second.durations_us;
  }
  out->Set(metric + "_p50", Median(durations), "us");
  const Tail tail = TailPercentile(durations, 99.0);
  out->Set(metric + "_p99", tail.value, "us");
  out->Context(metric + "_tail_pct", tail.pct);
  out->Context(metric + "_samples", static_cast<double>(tail.samples));
}

void RunLadder(const LadderInput& in, const RunOptions& run, SpanRecorder& recorder,
               Outcome* out) {
  const CaptureInput& cap = *in.capture;
  const uint64_t packets = cap.ids.size();
  hk::SketchDefaults defaults;
  defaults.k = kTopK;
  defaults.key_kind = in.key_kind;
  defaults.seed = run.seed;

  // ingest.read: ByteSource::Read in the reader's refill chunk size.
  for (int pass = 0; pass < kLadderPasses; ++pass) {
    auto source = hk::MakeBufferByteSource(cap.bytes);
    std::vector<uint8_t> chunk(kReadChunk);
    for (uint64_t burst = 0;; ++burst) {
      ScopedSpan span(recorder, "ingest.read", -1, burst);
      if (source->Read(chunk.data(), chunk.size()) == 0) {
        break;
      }
    }
  }

  // ingest.next: PcapReader::Next over a stream source, ids derived inline
  // (as ServeCore's ingest thread calls it), one span per 512-record burst.
  std::vector<hk::FlowId> inline_ids;
  inline_ids.reserve(packets);
  for (int pass = 0; pass < kLadderPasses; ++pass) {
    hk::PcapReader reader(cap.policy);
    reader.OpenStream(hk::MakeBufferByteSource(cap.bytes));
    inline_ids.clear();
    hk::PacketRecord record;
    bool more = true;
    for (uint64_t burst = 0; more; ++burst) {
      ScopedSpan span(recorder, "ingest.next", -1, burst);
      for (size_t i = 0; i < kBurst && (more = reader.Next(&record)); ++i) {
        inline_ids.push_back(record.id);
      }
    }
  }
  out->Check(inline_ids == cap.ids, "ladder: inline-derived ids differ from the capture's");

  // One serve-shaped burst per span: parse with deferred ids, batch-hash,
  // then InsertBatch into a standalone instance of the inner spec.
  hk::SketchDefaults inner_defaults = defaults;
  inner_defaults.memory_bytes = in.inner_memory_bytes;
  std::unique_ptr<hk::TopKAlgorithm> inner;
  std::vector<hk::FlowId> batch_ids;
  batch_ids.reserve(packets);
  for (int pass = 0; pass < kLadderPasses; ++pass) {
    inner = hk::MakeSketch(in.inner_spec, inner_defaults);
    hk::PcapReader reader(cap.policy);
    reader.set_defer_ids(true);
    reader.OpenStream(hk::MakeBufferByteSource(cap.bytes));
    batch_ids.clear();
    std::vector<hk::PacketRecord> records(kBurst);
    std::vector<hk::FlowId> ids(kBurst);
    bool more = true;
    for (uint64_t burst = 0; more; ++burst) {
      ScopedSpan parent(recorder, "ladder.burst", -1, burst);
      size_t n = 0;
      {
        ScopedSpan span(recorder, "ingest.parse", parent.index(), burst);
        while (n < kBurst && (more = reader.Next(&records[n]))) {
          ++n;
        }
      }
      {
        ScopedSpan span(recorder, "ingest.hash_batch", parent.index(), burst);
        hk::DerivePacketIds(cap.policy, records.data(), n);
      }
      for (size_t i = 0; i < n; ++i) {
        ids[i] = records[i].id;
      }
      {
        ScopedSpan span(recorder, "core.insert", parent.index(), burst);
        inner->InsertBatch(std::span<const hk::FlowId>(ids.data(), n));
      }
      batch_ids.insert(batch_ids.end(), ids.begin(), ids.begin() + static_cast<ptrdiff_t>(n));
    }
  }
  out->Check(batch_ids == cap.ids, "ladder: batch-derived ids differ from the capture's");

  // core.estimate: EstimateSizeBatch over the heaviest flows, the shape of
  // a windowed TOPK's rescore.
  std::vector<hk::FlowId> probe_ids;
  for (const hk::FlowCount& fc : cap.oracle.TopK(kEstimateIds)) {
    probe_ids.push_back(fc.id);
  }
  std::vector<uint64_t> estimates(probe_ids.size());
  for (int call = 0; call < kEstimateCalls; ++call) {
    ScopedSpan span(recorder, "core.estimate", -1, call);
    inner->EstimateSizeBatch(probe_ids, estimates);
  }

  // window.*: a standalone ring fed the same ids, then timed Snapshots.
  hk::SketchDefaults full_defaults = defaults;
  full_defaults.memory_bytes = in.memory_bytes;
  std::unique_ptr<hk::TopKAlgorithm> window = hk::MakeSketch(in.window_spec, full_defaults);
  const MetricSamples before_window = ScrapeRegistry();
  FeedAll(*window, cap.ids);
  for (int i = 0; i < kWindowSnapshots; ++i) {
    ScopedSpan span(recorder, "window.snapshot", -1, i);
    window->Snapshot(hk::QueryOptions{kTopK});
  }
  out->Set("window.rotations",
           Delta(before_window, ScrapeRegistry(), "hk_window_rotations_total"), "count");

  // Checkpoint steps on a standalone instance of the full spec.
  std::unique_ptr<hk::TopKAlgorithm> built;
  hk::TopKAlgorithm* full = nullptr;
  if (in.spec == in.window_spec) {
    full = window.get();
  } else if (in.spec == in.inner_spec && in.memory_bytes == in.inner_memory_bytes) {
    full = inner.get();
  } else {
    window.reset();
    built = hk::MakeSketch(in.spec, full_defaults);
    FeedAll(*built, cap.ids);
    full = built.get();
  }
  const std::string path = run.workdir + "/ladder_checkpoint.bin";
  std::vector<double> write_minus_encode_ms;
  double bytes = 0.0;
  for (int rep = 0; rep < kCheckpointReps; ++rep) {
    hk::CheckpointManifest manifest;
    manifest.instances.emplace_back();
    hk::CheckpointInstance& entry = manifest.instances.back();
    entry.name = "ladder";
    entry.spec = in.spec;
    entry.memory_bytes = in.memory_bytes;
    entry.seed = run.seed;
    bool saved = false;
    {
      ScopedSpan span(recorder, "serve.checkpoint_save", -1, rep);
      full->Flush();
      saved = full->SaveState(&entry.state);
    }
    const Clock::time_point e0 = Clock::now();
    std::vector<uint8_t> encoded;
    {
      ScopedSpan span(recorder, "serve.checkpoint_encode", -1, rep);
      encoded = hk::EncodeCheckpoint(manifest);
    }
    const double encode_ms = MicrosBetween(e0, Clock::now()) / 1000.0;
    bytes = static_cast<double>(encoded.size());
    encoded = {};
    const Clock::time_point w0 = Clock::now();
    bool written = false;
    {
      ScopedSpan span(recorder, "serve.checkpoint_write", -1, rep);
      written = hk::WriteCheckpointAtomic(path, manifest);
    }
    // WriteCheckpointAtomic encodes again before it writes; the write
    // step is what it spends beyond that encode.
    write_minus_encode_ms.push_back(MicrosBetween(w0, Clock::now()) / 1000.0 - encode_ms);
    out->Check(saved && written, "ladder: checkpoint save/write failed");
  }
  std::remove(path.c_str());

  const std::map<std::string, SpanTotals> totals = Summarize(recorder.spans());
  const double ladder_packets = static_cast<double>(packets) * kLadderPasses;
  out->Set("ingest.read_ns_per_pkt", SelfNs(totals, "ingest.read") / ladder_packets, "ns");
  out->Set("ingest.next_ns_per_pkt", SelfNs(totals, "ingest.next") / ladder_packets, "ns");
  out->Set("ingest.parse_ns_per_pkt", SelfNs(totals, "ingest.parse") / ladder_packets, "ns");
  out->Set("ingest.hash_batch_ns_per_pkt", SelfNs(totals, "ingest.hash_batch") / ladder_packets,
           "ns");
  out->Set("core.insert_ns_per_pkt", SelfNs(totals, "core.insert") / ladder_packets, "ns");
  const double estimated_ids = static_cast<double>(probe_ids.size()) * kEstimateCalls;
  out->Set("core.estimate_ns_per_id", SelfNs(totals, "core.estimate") / estimated_ids, "ns");
  ReportSpanPercentiles(totals, "window.snapshot", "window.snapshot_us", out);
  out->Set("serve.checkpoint_save_ms", MedianDuration(totals, "serve.checkpoint_save") / 1000.0,
           "ms");
  out->Set("serve.checkpoint_encode_ms",
           MedianDuration(totals, "serve.checkpoint_encode") / 1000.0, "ms");
  out->Set("serve.checkpoint_write_ms", Median(write_minus_encode_ms), "ms");
  out->Set("serve.checkpoint_bytes", bytes, "bytes");
  // The burst loop's own time: each ladder.burst span minus its children.
  out->Context("ladder.burst_self_ns_per_pkt", SelfNs(totals, "ladder.burst") / ladder_packets);
}

}  // namespace perfbench
