#include "protocol.h"

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "serve/net.h"

namespace perfbench {

bool IsMultiLineVerb(const std::string& request) {
  for (const char* verb : {"TOPK", "LIST", "STATS", "METRICS"}) {
    const std::string v(verb);
    if (request.compare(0, v.size(), v) == 0 &&
        (request.size() == v.size() || request[v.size()] == ' ')) {
      return true;
    }
  }
  return false;
}

LineClient::~LineClient() { Close(); }

bool LineClient::Connect(uint16_t port, std::string* err) {
  Close();
  fd_ = hk::ConnectTcp("127.0.0.1", port, err);
  return fd_ >= 0;
}

void LineClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  carry_.clear();
}

bool LineClient::Request(const std::string& line, std::string* response) {
  response->clear();
  if (fd_ < 0) {
    return false;
  }
  const std::string wire = line + "\n";
  if (!hk::WriteAll(fd_, wire.data(), wire.size())) {
    return false;
  }
  const bool multi = IsMultiLineVerb(line);
  std::string got;
  for (;;) {
    if (!hk::ReadLine(fd_, &carry_, &got)) {
      return false;
    }
    *response += got;
    *response += '\n';
    // A multi-line verb that fails answers with one ERR line.
    if (!multi || got.rfind("END", 0) == 0 || (response->size() == got.size() + 1 &&
                                                got.rfind("ERR", 0) == 0)) {
      return true;
    }
  }
}

namespace {

bool ParseU64(const std::string& text, int base, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, base);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

// Value of a key=value token on the END line ("" when absent).
std::string EndField(const std::vector<std::string>& tokens, const std::string& key) {
  for (const std::string& t : tokens) {
    if (t.rfind(key + "=", 0) == 0) {
      return t.substr(key.size() + 1);
    }
  }
  return "";
}

}  // namespace

bool ParseTopK(const std::string& text, size_t k, const std::string& allowed_consistency,
               bool windowed, TopKResponse* out, std::string* err) {
  out->flows.clear();
  std::istringstream in(text);
  std::string line;
  bool ended = false;
  while (std::getline(in, line)) {
    if (ended) {
      *err = "text after END: '" + line + "'";
      return false;
    }
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    std::string token;
    while (fields >> token) {
      tokens.push_back(token);
    }
    if (tokens.empty()) {
      *err = "empty line";
      return false;
    }
    if (tokens[0] == "FLOW") {
      hk::FlowCount flow;
      if (tokens.size() != 3 || !ParseU64(tokens[1], 16, &flow.id) ||
          !ParseU64(tokens[2], 10, &flow.count)) {
        *err = "malformed FLOW line '" + line + "'";
        return false;
      }
      if (!out->flows.empty() && flow.count > out->flows.back().count) {
        *err = "estimates increase at '" + line + "'";
        return false;
      }
      out->flows.push_back(flow);
      if (out->flows.size() > k) {
        *err = "more than k=" + std::to_string(k) + " FLOW lines";
        return false;
      }
      continue;
    }
    if (tokens[0] != "END") {
      *err = "unexpected line '" + line + "'";
      return false;
    }
    ended = true;
    out->consistency = EndField(tokens, "consistency");
    if (out->consistency != allowed_consistency) {
      *err = "consistency '" + out->consistency + "' where '" + allowed_consistency +
             "' was requested";
      return false;
    }
    if (windowed && !ParseU64(EndField(tokens, "completed_epochs"), 10,
                              &out->completed_epochs)) {
      *err = "window answer without completed_epochs";
      return false;
    }
  }
  if (!ended) {
    *err = "response has no END line";
    return false;
  }
  return true;
}

MetricSamples ParsePrometheus(const std::string& text) {
  MetricSamples samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line == "END") {
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    samples[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return samples;
}

double SampleValue(const MetricSamples& samples, const std::string& series) {
  const auto it = samples.find(series);
  return it == samples.end() ? 0.0 : it->second;
}

double HistogramPercentile(const MetricSamples& before, const MetricSamples& after,
                           const std::string& name, const std::string& labels, double pct) {
  const std::string prefix = name + "_bucket{" + (labels.empty() ? "" : labels + ",") + "le=\"";
  // Cumulative counts per finite upper bound, ascending.
  std::map<double, double> cumulative;
  double total = 0.0;
  for (const auto& [series, value] : after) {
    if (series.rfind(prefix, 0) != 0) {
      continue;
    }
    const std::string le = series.substr(prefix.size(), series.size() - prefix.size() - 2);
    const double count = value - SampleValue(before, series);
    if (le == "+Inf") {
      total = count;
    } else {
      cumulative[std::strtod(le.c_str(), nullptr)] = count;
    }
  }
  if (total <= 0.0) {
    return 0.0;
  }
  const double target = pct / 100.0 * total;
  for (const auto& [bound, count] : cumulative) {
    if (count >= target) {
      return bound;
    }
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace perfbench
