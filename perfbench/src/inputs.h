// Workload inputs and their exact answers. Everything here runs once per
// (workload, seed) before any clock starts: capture synthesis, the parsed
// id stream, and the exact oracle the final top-k is scored against.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/flow_key.h"
#include "ingest/pcap_reader.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace perfbench {

struct CaptureInput {
  std::vector<uint8_t> bytes;   // a complete classic pcap file
  std::vector<hk::FlowId> ids;  // the ids PcapReader derives from it, in order
  hk::Oracle oracle;            // exact per-flow packet counts of `ids`
  hk::PcapKeyPolicy policy = hk::PcapKeyPolicy::kFiveTuple;
};

// Synthesize `config` as a classic pcap (`snaplen` bytes per record at
// most) through a scratch file under `workdir`, load it, and parse it
// under `policy`. When the policy derives the generator's own ids (5-tuple
// for kFiveTuple13B, pair for kAddrPair8B) the parsed stream must equal the
// generated trace; a mismatch is an error.
bool MakeCaptureInput(const hk::ZipfTraceConfig& config, hk::PcapKeyPolicy policy,
                      uint32_t snaplen, const std::string& workdir, CaptureInput* out,
                      std::string* err);

struct Accuracy {
  double precision = 0.0;
  double are = 0.0;
  size_t reported = 0;
};

// The exact top-k answer of one oracle, computed once so that scoring a
// report costs k lookups instead of a pass over every flow.
//
// Precision is tie-tolerant, as in metrics/accuracy.h (the paper's Section
// VI-B): a reported flow is correct when its true size reaches the k-th
// largest true size. ARE averages |estimate - true| / true over the first
// k reported flows (a flow the oracle never saw counts its estimate as the
// error). With fewer than k flows in the oracle, k shrinks to the flow
// count.
class TopKTruth {
 public:
  TopKTruth(const hk::Oracle& oracle, size_t k);

  Accuracy Score(const std::vector<hk::FlowCount>& reported) const;

 private:
  const hk::Oracle& oracle_;
  size_t k_;
  uint64_t kth_;
};

// Exact counts of stream positions [begin, end) of `ids`.
hk::Oracle RangeOracle(const std::vector<hk::FlowId>& ids, uint64_t begin, uint64_t end);

// First stream position a Window:w=W ring still answers for once it has
// completed `completed` epochs of `epoch_packets` each: the W-1 newest
// completed epochs plus the current partial one.
uint64_t WindowStart(uint64_t completed, uint64_t epoch_packets, uint64_t window_epochs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
