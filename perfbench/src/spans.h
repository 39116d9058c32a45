// Span recorder for the traced run. Spans are recorded from the
// benchmark's own code around its calls into each layer's public
// functions - per burst and per request, never per packet - kept in
// memory, and written out once when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  const char* name = "";   // static string: the layer.operation label
  int64_t start_ns = 0;    // since the recorder's origin
  int64_t end_ns = 0;
  int32_t parent = -1;     // index of the enclosing span, -1 for a root
  uint64_t request_id = 0; // shared by the spans of one burst or request
};

// Per-name totals: count, summed duration, and summed self time (duration
// minus the part of the interval that child spans cover).
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_us;  // one per span, for percentiles
};

// Self time of every span: its duration minus the measure of the union of
// its children's intervals, each clipped to the parent's interval.
std::vector<double> SelfTimesNs(const std::vector<Span>& spans);

std::map<std::string, SpanTotals> Summarize(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  // A disabled recorder makes Begin/End no-ops, so the same code paths run
  // traced and untraced.
  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Returns the span's index (-1 when disabled). Thread-safe.
  int32_t Begin(const char* name, int32_t parent, uint64_t request_id);
  void End(int32_t index);

  std::vector<Span> spans() const;

  // Append the spans as JSON lines ({"name", "start_ns", "end_ns",
  // "parent", "request_id"}). False on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t Now() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span; nests by passing the enclosing ScopedSpan's index().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int32_t parent = -1,
             uint64_t request_id = 0)
      : recorder_(recorder), index_(recorder.Begin(name, parent, request_id)) {}
  ~ScopedSpan() { recorder_.End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
