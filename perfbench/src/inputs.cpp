#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "ingest/capture_synth.h"

namespace perfbench {

bool MakeCaptureInput(const hk::ZipfTraceConfig& config, hk::PcapKeyPolicy policy,
                      uint32_t snaplen, const std::string& workdir, CaptureInput* out,
                      std::string* err) {
  const std::string path = workdir + "/capture.pcap";
  hk::CaptureSynthOptions options;
  options.file.snaplen = snaplen;
  options.length_seed = config.seed;
  const hk::Trace trace = hk::SynthesizeCapture(config, path, options);
  if (trace.num_packets() == 0) {
    *err = "capture synthesis failed at " + path;
    return false;
  }
  {
    std::ifstream in(path, std::ios::binary);
    out->bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());

  hk::PcapReader reader(policy);
  if (!reader.OpenBuffer(out->bytes)) {
    *err = "synthesized capture does not parse: " + reader.error();
    return false;
  }
  out->policy = policy;
  out->ids.clear();
  out->ids.reserve(trace.num_packets());
  hk::PacketRecord record;
  while (reader.Next(&record)) {
    out->ids.push_back(record.id);
  }
  if (!reader.ok() || out->ids.size() != trace.num_packets()) {
    *err = "synthesized capture parsed to " + std::to_string(out->ids.size()) + " of " +
           std::to_string(trace.num_packets()) + " packets " + reader.error();
    return false;
  }
  const bool same_ids = (config.key_kind == hk::KeyKind::kFiveTuple13B &&
                         policy == hk::PcapKeyPolicy::kFiveTuple) ||
                        (config.key_kind == hk::KeyKind::kAddrPair8B &&
                         policy == hk::PcapKeyPolicy::kAddrPair);
  if (same_ids && out->ids != trace.packets) {
    *err = "parsed flow ids differ from the generated trace";
    return false;
  }
  out->oracle = hk::Oracle();
  for (const hk::FlowId id : out->ids) {
    out->oracle.Add(id);
  }
  return true;
}

TopKTruth::TopKTruth(const hk::Oracle& oracle, size_t k)
    : oracle_(oracle),
      k_(std::min<size_t>(k, oracle.num_flows())),
      kth_(k_ == 0 ? 0 : oracle.KthSize(k_)) {}

Accuracy TopKTruth::Score(const std::vector<hk::FlowCount>& reported) const {
  Accuracy acc;
  acc.reported = std::min(reported.size(), k_);
  if (k_ == 0) {
    return acc;
  }
  size_t correct = 0;
  double relative_error = 0.0;
  for (size_t i = 0; i < acc.reported; ++i) {
    const uint64_t real = oracle_.Count(reported[i].id);
    if (kth_ > 0 && real >= kth_) {
      ++correct;
    }
    const double error =
        std::abs(static_cast<double>(reported[i].count) - static_cast<double>(real));
    relative_error += real > 0 ? error / static_cast<double>(real) : error;
  }
  acc.precision = static_cast<double>(correct) / static_cast<double>(k_);
  if (acc.reported > 0) {
    acc.are = relative_error / static_cast<double>(acc.reported);
  }
  return acc;
}

hk::Oracle RangeOracle(const std::vector<hk::FlowId>& ids, uint64_t begin, uint64_t end) {
  hk::Oracle oracle;
  for (uint64_t p = begin; p < end && p < ids.size(); ++p) {
    oracle.Add(ids[p]);
  }
  return oracle;
}

uint64_t WindowStart(uint64_t completed, uint64_t epoch_packets, uint64_t window_epochs) {
  const uint64_t live_completed = window_epochs - 1;
  return completed > live_completed ? (completed - live_completed) * epoch_packets : 0;
}

}  // namespace perfbench
