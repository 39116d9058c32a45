// campus-serve and caida-window: a ServeCore + LineServer in this process
// on an ephemeral loopback port, fed the synthesized capture over tcp://
// by one feeder thread, queried open-loop by one client thread per stream.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <thread>

#include "serve/checkpoint.h"
#include "serve/line_server.h"
#include "serve/net.h"
#include "serve/serve_core.h"
#include "sketch/registry.h"
#include "telemetry/telemetry.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kTopK = 100;
constexpr size_t kFeedChunk = 64 * 1024;
constexpr const char* kInstance = "bench";

// Idle probes per traced cycle (after drain).
constexpr int kIdleTopKProbes = 20;
constexpr int kPingProbes = 100;

std::string Hex(hk::FlowId id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIx64, id);
  return buf;
}

// Accept one connection within `timeout_ms`; -1 on timeout or error.
int AcceptOne(int listen_fd, int timeout_ms) {
  pollfd p{listen_fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) {
    return -1;
  }
  return ::accept(listen_fd, nullptr, nullptr);
}

// Checks one query response; TOPK answers must parse strictly.
bool ValidResponse(const std::string& line, const std::string& response, bool windowed,
                   std::string* err) {
  if (line.rfind("TOPK", 0) == 0) {
    TopKResponse parsed;
    return ParseTopK(response, kTopK, "exact", windowed && line.find("window") != std::string::npos,
                     &parsed, err);
  }
  if (line.rfind("POINT", 0) == 0) {
    const bool ok = response.rfind("OK ", 0) == 0 && response.back() == '\n' &&
                    response.find('\n') == response.size() - 1;
    if (!ok) {
      *err = "bad reply '" + response + "' to " + line;
    }
    return ok;
  }
  *err = "unexpected request " + line;
  return false;
}

// Loads the checkpoint file the CHECKPOINT verb wrote and checks that a
// fresh instance restored from it answers `expected` at the sent offset.
void CheckRestoredCheckpoint(const std::string& path, const hk::SketchDefaults& live_defaults,
                             uint64_t packets, const std::vector<hk::FlowCount>& expected,
                             Cycles* cycles, Outcome* out) {
  hk::CheckpointManifest manifest;
  std::string err;
  const bool loaded = hk::LoadCheckpoint(path, &manifest, &err);
  if (!out->Check(loaded && manifest.instances.size() == 1, "LoadCheckpoint: " + err)) {
    return;
  }
  const hk::CheckpointInstance& entry = manifest.instances[0];
  out->Check(entry.packets_applied == packets,
             "checkpoint offset " + std::to_string(entry.packets_applied));
  hk::SketchDefaults defaults = live_defaults;
  defaults.seed = entry.seed;
  auto restored = hk::MakeSketch(entry.spec, defaults);
  out->Check(restored->LoadState(entry.state.data(), entry.state.size()),
             "LoadState rejected the checkpoint");
  const hk::QueryResult again = restored->Snapshot(hk::QueryOptions{kTopK});
  out->Check(again.flows == expected,
             "restored checkpoint answers differently from the live instance");
  cycles->simd_kernel = again.stats.simd_kernel;
}

}  // namespace

ServeWorkload CampusServe(uint64_t seed) {
  ServeWorkload w;
  w.config = hk::CampusConfig(1'000'000, seed);
  w.policy = hk::PcapKeyPolicy::kFiveTuple;
  w.spec = "HK-Minimum";
  w.inner_spec = "HK-Minimum";
  w.memory_bytes = 256 * 1024;
  w.inner_memory_bytes = w.memory_bytes;
  w.final_query = "TOPK 100 exact";
  w.streams = {QueryStream{200.0, {"TOPK 100"}}};
  w.precision_floor = 0.9;
  return w;
}

ServeWorkload CaidaWindow(uint64_t seed) {
  ServeWorkload w;
  w.config = hk::CaidaConfig(1'000'000, seed);
  w.policy = hk::PcapKeyPolicy::kAddrPair;
  w.window_epochs = 8;
  w.epoch_packets = w.config.num_packets / 16;
  w.inner_spec = "HK-Minimum";
  w.spec = "Window:w=8,epoch=" + std::to_string(w.epoch_packets) + ",inner=" + w.inner_spec;
  w.memory_bytes = 8 * 1024 * 1024;
  w.inner_memory_bytes = w.memory_bytes / w.window_epochs;
  w.final_query = "TOPK 100 window";
  // POINT lines are filled in with the capture's heaviest flows once the
  // oracle exists (see RunServeCycles).
  // 400 queries/s in all. At 200/s the 1-ms windowed TOPKs held the lock
  // long enough to turn a few percent of host slowdown into a third less
  // ingest, so the window query runs at 100/s and POINT fills the rest.
  w.streams = {QueryStream{100.0, {"TOPK 100 window"}}, QueryStream{300.0, {}}};
  w.precision_floor = 0.9;
  return w;
}

void RunServeCycles(const ServeWorkload& w, const CaptureInput& input, const RunOptions& run,
                    double seconds, SpanRecorder& recorder, Cycles* cycles, Outcome* out) {
  const bool traced = recorder.enabled();
  const bool windowed = w.window_epochs > 0;
  const uint64_t packets = input.ids.size();
  std::vector<QueryStream> streams = w.streams;
  for (QueryStream& s : streams) {
    if (s.lines.empty()) {
      for (const hk::FlowCount& fc : input.oracle.TopK(10)) {
        s.lines.push_back("POINT " + Hex(fc.id));
      }
    }
  }
  // The exact answer the final TOPK is scored against.
  hk::Oracle window_oracle;
  uint64_t expect_epochs = 0;
  if (windowed) {
    expect_epochs = packets / w.epoch_packets;
    window_oracle =
        RangeOracle(input.ids, WindowStart(expect_epochs, w.epoch_packets, w.window_epochs),
                    packets);
  }
  const TopKTruth truth(windowed ? window_oracle : input.oracle, kTopK);

  std::string err;
  uint16_t feed_port = 0;
  const int listen_fd = hk::ListenTcp(0, &feed_port, &err);
  if (!out->Check(listen_fd >= 0, "feeder listen: " + err)) {
    return;
  }
  const std::string checkpoint_path = run.workdir + "/checkpoint.bin";
  const std::string attach = std::string("ATTACH ") + kInstance + " tcp://127.0.0.1:" +
                             std::to_string(feed_port) + " key=" +
                             hk::PcapKeyPolicyName(w.policy);
  cycles->before = ScrapeRegistry();
  const Clock::time_point run_start = Clock::now();
  const Clock::time_point deadline =
      run_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
  CheckpointBudget checkpoints(run_start);
  for (uint64_t cycle = 0;; ++cycle) {
    hk::ServeOptions options;
    options.checkpoint_path = checkpoint_path;
    options.defaults.memory_bytes = w.memory_bytes;
    options.defaults.k = kTopK;
    options.defaults.key_kind = hk::ToKeyKind(w.policy);
    options.defaults.seed = run.seed * 1000 + cycle;

    // --- setup: ServeCore + LineServer::Start, then CREATE + ATTACH reply.
    const Clock::time_point t0 = Clock::now();
    auto core = std::make_unique<hk::ServeCore>(options);
    auto server = std::make_unique<hk::LineServer>(*core);
    const bool started = server->Start(0, &err);
    const Clock::time_point t1 = Clock::now();
    if (!out->Check(started, "LineServer::Start: " + err)) {
      break;
    }
    LineClient control;
    std::vector<std::unique_ptr<LineClient>> clients;
    bool connected = control.Connect(server->port(), &err);
    for (size_t s = 0; s < streams.size() && connected; ++s) {
      clients.push_back(std::make_unique<LineClient>());
      connected = clients.back()->Connect(server->port(), &err);
    }
    if (!out->Check(connected, "connect: " + err)) {
      break;
    }
    // Trimmed every cycle, so each set-up pays the page faults of a fresh
    // instance rather than reusing the pages the previous cycle freed.
    const uint64_t rss0 = TrimmedResidentBytes();
    std::string reply;
    const Clock::time_point t2 = Clock::now();
    control.Request(std::string("CREATE ") + kInstance + " " + w.spec, &reply);
    if (!out->Check(reply.rfind("OK created", 0) == 0, "CREATE: " + reply)) {
      break;
    }
    // The feeder serves the ingest thread's connection to the listening
    // socket; ATTACH returns before that connection is made.
    double feed_seconds = 0.0;
    bool feed_ok = false;
    std::thread feeder([&] {
      const int fd = AcceptOne(listen_fd, 30'000);
      if (fd < 0) {
        return;
      }
      const Clock::time_point start = Clock::now();
      feed_ok = true;
      for (size_t off = 0; off < input.bytes.size() && feed_ok; off += kFeedChunk) {
        ScopedSpan span(recorder, "loadgen.feed", -1, cycle);
        const size_t n = std::min(kFeedChunk, input.bytes.size() - off);
        feed_ok = hk::WriteAll(fd, reinterpret_cast<const char*>(input.bytes.data()) + off, n);
      }
      ::shutdown(fd, SHUT_WR);
      ::close(fd);
      feed_seconds = SecondsBetween(start, Clock::now());
    });
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t_attach = Clock::now();
    control.Request(attach, &reply);
    const Clock::time_point t3 = Clock::now();
    const bool attached = reply.rfind("OK attached", 0) == 0;
    out->Check(attached, "ATTACH: " + reply);
    cycles->setup_s.push_back(SecondsBetween(t0, t1) + SecondsBetween(t2, t3));

    // --- ingest under open-loop queries.
    std::vector<std::unique_ptr<OpenLoop>> loops;
    std::vector<std::thread> query_threads;
    std::vector<uint64_t> response_bytes(streams.size(), 0);
    std::vector<uint64_t> topk_responses(streams.size(), 0);
    std::vector<std::string> query_errors(streams.size());
    for (size_t s = 0; s < streams.size() && attached; ++s) {
      loops.push_back(std::make_unique<OpenLoop>(t_attach, streams[s].rate_hz));
    }
    for (size_t s = 0; s < loops.size(); ++s) {
      query_threads.emplace_back([&, s] {
        const QueryStream& stream = streams[s];
        loops[s]->Run([&](uint64_t i) {
          const std::string& line = stream.lines[i % stream.lines.size()];
          std::string response;
          bool ok = true;
          if (traced) {
            ScopedSpan span(recorder, "serve.execute", -1, (s << 32) | i);
            response = core->Execute(line);
          } else {
            ok = clients[s]->Request(line, &response);
          }
          std::string why = "connection dropped on " + line;
          ok = ok && ValidResponse(line, response, windowed, &why);
          if (!ok && query_errors[s].empty()) {
            query_errors[s] = why;
          }
          if (line.rfind("TOPK", 0) == 0) {
            response_bytes[s] += response.size();
            ++topk_responses[s];
          }
          return ok;
        });
      });
    }
    feeder.join();
    // Ingest ends when the ingest thread has applied the last record of the
    // closed stream. DrainIngest polls an atomic flag every millisecond;
    // polling PacketsApplied instead would contend for the instance lock.
    core->DrainIngest();
    const Clock::time_point t_end = Clock::now();
    const double cpu1 = ProcessCpuSeconds();
    const uint64_t applied = core->PacketsApplied(kInstance);
    for (auto& loop : loops) {
      loop->RequestStop(t_end);
    }
    for (std::thread& t : query_threads) {
      t.join();
    }
    if (cycle == 0) {
      // The ingest thread flags the end of its stream just before it frees
      // its reader's buffer on the way out; let it finish exiting so the
      // reading does not race that free.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cycles->rss_mb = (static_cast<double>(TrimmedResidentBytes()) - static_cast<double>(rss0)) /
                       (1024.0 * 1024.0);
    }
    out->Check(feed_ok, "feeder could not stream the capture");
    out->Check(applied == packets, "cycle " + std::to_string(cycle) + ": applied " +
                                       std::to_string(applied) + " of " +
                                       std::to_string(packets) + " sent packets");
    const double ingest_s = SecondsBetween(t_attach, t_end);
    cycles->packets_sent += packets;
    cycles->ingest_seconds += ingest_s;
    cycles->ingest_mpps.push_back(static_cast<double>(packets) / ingest_s / 1e6);
    cycles->cpu_ns_per_pkt.push_back((cpu1 - cpu0) * 1e9 / static_cast<double>(packets));
    cycles->feed_bytes += static_cast<double>(input.bytes.size());
    cycles->feed_seconds += feed_seconds;
    for (size_t s = 0; s < loops.size(); ++s) {
      const OpenLoop& loop = *loops[s];
      std::vector<double>& latencies = s == 0 ? cycles->query_us : cycles->side_query_us;
      latencies.insert(latencies.end(), loop.latencies_us().begin(), loop.latencies_us().end());
      cycles->late_us.insert(cycles->late_us.end(), loop.late_us().begin(),
                             loop.late_us().end());
      cycles->queries += loop.issued();
      cycles->query_failures += loop.failed();
      cycles->response_bytes += static_cast<double>(response_bytes[s]);
      cycles->topk_responses += topk_responses[s];
      out->Check(query_errors[s].empty(), "query: " + query_errors[s]);
    }

    // --- the drained answer, scored against the exact oracle.
    control.Request(w.final_query, &reply);
    TopKResponse final_answer;
    if (out->Check(ParseTopK(reply, kTopK, "exact", windowed, &final_answer, &err),
                   "final " + w.final_query + ": " + err)) {
      const Accuracy acc = truth.Score(final_answer.flows);
      cycles->precision.push_back(acc.precision);
      cycles->are.push_back(acc.are);
      out->Check(acc.are <= kMaxAre, "ARE " + std::to_string(acc.are) + " above " +
                                         std::to_string(kMaxAre));
      out->Check(acc.reported == kTopK, "final answer holds " +
                                            std::to_string(acc.reported) + " flows");
      out->Check(acc.precision >= w.precision_floor,
                 "precision " + std::to_string(acc.precision) + " below the floor " +
                     std::to_string(w.precision_floor));
      if (windowed) {
        out->Check(final_answer.completed_epochs == expect_epochs,
                   "window completed " + std::to_string(final_answer.completed_epochs) +
                       " epochs, expected " + std::to_string(expect_epochs));
      }
    }

    if (traced) {
      for (int i = 0; i < kIdleTopKProbes; ++i) {
        ScopedSpan span(recorder, "serve.topk_idle", -1, i);
        core->Execute(streams[0].lines[0]);
      }
      for (int i = 0; i < kPingProbes; ++i) {
        ScopedSpan span(recorder, "net.ping", -1, i);
        control.Request("PING", &reply);
      }
    }

    // --- CHECKPOINT latency, then the round trip through the file.
    const bool final_cycle = Clock::now() >= deadline;
    const Clock::time_point c0 = Clock::now();
    if (checkpoints.Due(cycle, final_cycle, c0)) {
      control.Request("CHECKPOINT", &reply);
      cycles->checkpoint_ms.push_back(MicrosBetween(c0, Clock::now()) / 1000.0);
      if (out->Check(reply.rfind("OK checkpoint", 0) == 0, "CHECKPOINT: " + reply)) {
        // The live instance has given its answer; drop it so that it and
        // its restored copy are never resident together.
        control.Request(std::string("DROP ") + kInstance, &reply);
        out->Check(reply.rfind("OK dropped", 0) == 0, "DROP: " + reply);
        CheckRestoredCheckpoint(checkpoint_path, options.defaults, packets,
                                final_answer.flows, cycles, out);
      }
      std::remove(checkpoint_path.c_str());
      checkpoints.Spent(c0, Clock::now());
    }

    // The METRICS verb is read once, on the last cycle's server: the
    // registry is process-wide, so it covers every cycle.
    if (final_cycle) {
      control.Request("METRICS", &reply);
      cycles->after = ParsePrometheus(reply);
      const std::string series = std::string("hk_ingest_packets_total{instance=\"") +
                                 kInstance + "\"}";
      const double counted =
          SampleValue(cycles->after, series) - SampleValue(cycles->before, series);
      if (hk::telemetry::Registry::Enabled()) {
        out->Check(static_cast<uint64_t>(counted) == cycles->packets_sent,
                   "hk_ingest_packets_total moved by " + std::to_string(counted) + ", sent " +
                       std::to_string(cycles->packets_sent));
        const std::string malformed = std::string("hk_ingest_malformed_frames_total{instance=\"") +
                                      kInstance + "\"}";
        out->Check(SampleValue(cycles->after, malformed) ==
                       SampleValue(cycles->before, malformed),
                   "the parser counted malformed frames");
      }
    }
    control.Close();
    clients.clear();
    server->Stop();
    core.reset();
    if (final_cycle || !out->failures().empty()) {
      break;
    }
  }
  ::close(listen_fd);
}

}  // namespace perfbench
