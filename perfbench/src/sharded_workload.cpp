// zipf-sharded: no capture and no sockets. One producer thread pushes
// in-memory ids through InsertBatch into a threaded Sharded instance and
// takes Snapshot(kRelaxed) on an open-loop schedule between batches.
#include <algorithm>
#include <memory>
#include <span>

#include "serve/checkpoint.h"
#include "sketch/registry.h"
#include "telemetry/telemetry.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kTopK = 100;

// True when `flows` is a well-formed top-k report: at most k entries with
// non-increasing estimates.
bool WellFormed(const std::vector<hk::FlowCount>& flows) {
  if (flows.size() > kTopK) {
    return false;
  }
  for (size_t i = 1; i < flows.size(); ++i) {
    if (flows[i].count > flows[i - 1].count) {
      return false;
    }
  }
  return true;
}

// Times Flush + SaveState + EncodeCheckpoint on `algo`, releases it, then
// checks that a fresh instance restored from the encoded bytes answers
// `expected` (one DRAM-sized state alive at a time besides the bytes).
void CheckpointRoundTrip(std::unique_ptr<hk::TopKAlgorithm>& algo, const std::string& spec,
                         const hk::SketchDefaults& defaults, uint64_t packets,
                         const std::vector<hk::FlowCount>& expected, Cycles* cycles,
                         Outcome* out) {
  std::vector<uint8_t> encoded;
  bool saved = false;
  {
    hk::CheckpointManifest manifest;
    hk::CheckpointInstance entry;
    entry.name = "bench";
    entry.spec = spec;
    entry.memory_bytes = defaults.memory_bytes;
    entry.k = defaults.k;
    entry.key_kind = static_cast<uint8_t>(defaults.key_kind);
    entry.seed = defaults.seed;
    entry.packets_applied = packets;
    const Clock::time_point c0 = Clock::now();
    algo->Flush();
    saved = algo->SaveState(&entry.state);
    manifest.instances.push_back(std::move(entry));
    encoded = hk::EncodeCheckpoint(manifest);
    cycles->checkpoint_ms.push_back(MicrosBetween(c0, Clock::now()) / 1000.0);
  }
  algo.reset();
  hk::CheckpointManifest decoded;
  std::string err;
  if (out->Check(saved && hk::DecodeCheckpoint(encoded.data(), encoded.size(), &decoded, &err),
                 "checkpoint encode/decode: " + err)) {
    encoded = {};
    auto restored = hk::MakeSketch(spec, defaults);
    const hk::CheckpointInstance& back = decoded.instances.at(0);
    out->Check(restored->LoadState(back.state.data(), back.state.size()),
               "LoadState rejected the checkpoint");
    out->Check(restored->Snapshot(hk::QueryOptions{kTopK}).flows == expected,
               "restored checkpoint answers differently from the live instance");
  }
}

}  // namespace

ShardedWorkload ZipfSharded() {
  ShardedWorkload w;
  w.packets = 4'000'000;
  w.skew = 1.0;
  w.inner_spec = "HK-Minimum";
  w.spec = "Sharded:n=2,threads=1,inner=" + w.inner_spec;
  w.memory_bytes = 64 * 1024 * 1024;
  w.inner_memory_bytes = w.memory_bytes / 2;
  w.precision_floor = 0.9;
  return w;
}

void RunShardedCycles(const std::string& spec, size_t memory_bytes, hk::KeyKind key_kind,
                      const std::vector<hk::FlowId>& ids, const hk::Oracle& oracle,
                      double snapshot_rate_hz, size_t batch, double precision_floor,
                      const RunOptions& run, double seconds, SpanRecorder& recorder,
                      Cycles* cycles, Outcome* out) {
  const uint64_t packets = ids.size();
  const TopKTruth truth(oracle, kTopK);
  cycles->before = ScrapeRegistry();
  const Clock::time_point run_start = Clock::now();
  const Clock::time_point deadline =
      run_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
  CheckpointBudget checkpoints(run_start);
  for (uint64_t cycle = 0;; ++cycle) {
    hk::SketchDefaults defaults;
    defaults.memory_bytes = memory_bytes;
    defaults.k = kTopK;
    defaults.key_kind = key_kind;
    defaults.seed = run.seed * 1000 + cycle;

    // Trimmed every cycle, so each set-up pays the page faults of a fresh
    // instance rather than reusing the pages the previous cycle freed.
    const uint64_t rss0 = TrimmedResidentBytes();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<hk::TopKAlgorithm> algo = hk::MakeSketch(spec, defaults);
    cycles->setup_s.push_back(SecondsBetween(t0, Clock::now()));

    // Open-loop snapshots between batches: slot j is due at start + j /
    // rate and its latency runs from that due time, so a slow batch or a
    // slow snapshot delays (and is charged to) every slot behind it.
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    OpenLoop schedule(start, snapshot_rate_hz);
    uint64_t next_slot = 0;
    bool snapshots_ok = true;
    const auto snapshot = [&](uint64_t slot) {
      const Clock::time_point due = schedule.Due(slot);
      const Clock::time_point sent = Clock::now();
      hk::QueryResult result;
      {
        ScopedSpan span(recorder, "shard.snapshot", -1, slot);
        {
          ScopedSpan flush(recorder, "shard.flush", span.index(), slot);
          if (recorder.enabled()) {
            algo->Flush();
          }
        }
        result = algo->Snapshot(hk::QueryOptions{kTopK, hk::ConsistencyLevel::kRelaxed});
      }
      const Clock::time_point done = Clock::now();
      cycles->query_us.push_back(MicrosBetween(due, done));
      cycles->late_us.push_back(MicrosBetween(due, sent));
      ++cycles->queries;
      if (!WellFormed(result.flows)) {
        ++cycles->query_failures;
        snapshots_ok = false;
      }
    };
    for (uint64_t off = 0; off < packets; off += batch) {
      {
        ScopedSpan span(recorder, "shard.enqueue", -1, off / batch);
        const size_t n = std::min<uint64_t>(batch, packets - off);
        algo->InsertBatch(std::span<const hk::FlowId>(ids.data() + off, n));
      }
      if (Clock::now() >= schedule.Due(next_slot)) {
        snapshot(next_slot++);
      }
    }
    {
      ScopedSpan span(recorder, "shard.flush", -1, cycle);
      algo->Flush();
    }
    const Clock::time_point end = Clock::now();
    const double cpu1 = ProcessCpuSeconds();
    const uint64_t rss1 = TrimmedResidentBytes();
    // Slots that fell due before ingest ended are still issued.
    while (schedule.Due(next_slot) < end) {
      snapshot(next_slot++);
    }
    out->Check(snapshots_ok, "a relaxed snapshot returned a malformed report");
    cycles->packets_sent += packets;
    cycles->ingest_seconds += SecondsBetween(start, end);
    cycles->ingest_mpps.push_back(static_cast<double>(packets) / SecondsBetween(start, end) / 1e6);
    cycles->cpu_ns_per_pkt.push_back((cpu1 - cpu0) * 1e9 / static_cast<double>(packets));
    if (cycle == 0) {
      cycles->rss_mb = (static_cast<double>(rss1) - static_cast<double>(rss0)) / (1024.0 * 1024.0);
    }

    const hk::QueryResult final_answer = algo->Snapshot(hk::QueryOptions{kTopK});
    const Accuracy acc = truth.Score(final_answer.flows);
    cycles->precision.push_back(acc.precision);
    cycles->are.push_back(acc.are);
    cycles->simd_kernel = final_answer.stats.simd_kernel;
    out->Check(WellFormed(final_answer.flows) && acc.reported == kTopK,
               "final report holds " + std::to_string(acc.reported) + " flows");
    out->Check(acc.precision >= precision_floor, "precision " + std::to_string(acc.precision) +
                                                     " below the floor " +
                                                     std::to_string(precision_floor));

    out->Check(acc.are <= kMaxAre,
               "ARE " + std::to_string(acc.are) + " above " + std::to_string(kMaxAre));

    // Checkpoint = Flush + SaveState + EncodeCheckpoint, then the round
    // trip (see CheckpointDue).
    const bool final_cycle = Clock::now() >= deadline;
    const Clock::time_point c0 = Clock::now();
    if (checkpoints.Due(cycle, final_cycle, c0)) {
      CheckpointRoundTrip(algo, spec, defaults, packets, final_answer.flows, cycles, out);
      checkpoints.Spent(c0, Clock::now());
    }
    if (final_cycle || !out->failures().empty()) {
      break;
    }
  }
  cycles->after = ScrapeRegistry();
  if (hk::telemetry::Registry::Enabled()) {
    const double applied = SampleValue(cycles->after, "hk_core_packets_total") -
                           SampleValue(cycles->before, "hk_core_packets_total");
    out->Check(static_cast<uint64_t>(applied) == cycles->packets_sent,
               "hk_core_packets_total moved by " + std::to_string(applied) + ", sent " +
                   std::to_string(cycles->packets_sent));
  }
}

}  // namespace perfbench
