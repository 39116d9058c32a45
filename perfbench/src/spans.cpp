#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<double> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // everything before cursor is already counted
    for (const auto& [start, end] : kids) {
      const int64_t s = std::max(start, cursor);
      const int64_t e = std::min(end, hi);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self[i] = static_cast<double>(hi - lo - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    const double duration = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    ++t.count;
    t.total_ns += duration;
    t.self_ns += self[i];
    t.durations_us.push_back(duration / 1000.0);
  }
  return totals;
}

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

int32_t SpanRecorder::Begin(const char* name, int32_t parent, uint64_t request_id) {
  if (!enabled_) {
    return -1;
  }
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t index) {
  if (index < 0) {
    return;
  }
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"request_id\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
