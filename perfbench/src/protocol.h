// The client side of the hk_serve line protocol as the benchmark speaks it:
// a blocking connection that reads one complete response per request, and
// strict parsers for the TOPK and METRICS responses the correctness gate
// checks.
#ifndef PERFBENCH_PROTOCOL_H_
#define PERFBENCH_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flow_key.h"

namespace perfbench {

// Verbs whose response is several lines ending with an "END" line.
bool IsMultiLineVerb(const std::string& request);

class LineClient {
 public:
  LineClient() = default;
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(uint16_t port, std::string* err);

  // Send one request line and read its whole response (through the END
  // line for multi-line verbs). False when the connection dropped.
  bool Request(const std::string& line, std::string* response);

  void Close();

 private:
  int fd_ = -1;
  std::string carry_;
};

struct TopKResponse {
  std::vector<hk::FlowCount> flows;
  std::string consistency;     // the END line's consistency= tag
  uint64_t completed_epochs = 0;  // window answers only
};

// Strict TOPK response check: FLOW <hex> <count> lines, at most k of them,
// estimates non-increasing, then one END line whose consistency= tag is
// `allowed_consistency`, and nothing after it. `windowed` additionally
// requires the END line's window fields.
bool ParseTopK(const std::string& text, size_t k, const std::string& allowed_consistency,
               bool windowed, TopKResponse* out, std::string* err);

// One parsed Prometheus exposition: series key (name plus label body, as
// rendered) -> value. Histogram buckets keep their le label.
using MetricSamples = std::map<std::string, double>;
MetricSamples ParsePrometheus(const std::string& text);

// Counter or gauge value of `series` (0 when absent).
double SampleValue(const MetricSamples& samples, const std::string& series);

// Percentile of a log2 histogram from its cumulative le buckets:
// the upper bound of the bucket holding the pct-th observation of the
// difference `after - before` (both parsed expositions).
double HistogramPercentile(const MetricSamples& before, const MetricSamples& after,
                           const std::string& name, const std::string& labels, double pct);

}  // namespace perfbench

#endif  // PERFBENCH_PROTOCOL_H_
