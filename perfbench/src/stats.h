// Small measurement helpers shared by every workload: clocks, process
// resource readings, order statistics with the benchmark's tail-percentile
// rule, and the open-loop request scheduler.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Resident set size of this process in bytes (/proc/self/statm).
uint64_t ResidentBytes();

// Peak resident set size of this process in bytes (getrusage maxrss).
uint64_t PeakResidentBytes();

// Resident size after handing the allocator's free pages back to the OS
// (malloc_trim): growth between two such readings counts the pages held
// live, whether the allocator served them fresh or from memory freed
// earlier (by input generation, say).
uint64_t TrimmedResidentBytes();

// User + system CPU time of the whole process, all threads (getrusage).
double ProcessCpuSeconds();

// Median of `values` (mean of the two middle values for an even count);
// 0 for an empty vector.
double Median(std::vector<double> values);

// Nearest-rank percentile: the smallest sample with at least pct% of the
// samples at or below it. `sorted` must be ascending and non-empty.
double NearestRank(const std::vector<double>& sorted, double pct);

// Number of samples strictly above the nearest-rank pct-th percentile.
size_t SamplesBeyond(size_t n, double pct);

// The benchmark's tail rule: a percentile is reported only when at least
// kMinBeyond samples lie beyond it. TailPercentile walks the ladder
// 99.9, 99, 95, 90, 75, 50 downwards from `max_pct` and returns the first
// that qualifies; with too few samples for even p50 it returns p50 with
// qualified = false.
inline constexpr size_t kMinBeyond = 10;
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  size_t samples = 0;
  bool qualified = false;
};
Tail TailPercentile(std::vector<double> samples, double max_pct);

// Open-loop schedule: request i is due at origin + i / rate_hz, whatever
// happened to earlier requests. Run() issues each request at (or, when the
// caller is behind, after) its due time and records its latency from the
// due time, so a stall shows up as higher latency on every request that
// queued behind it rather than as fewer samples.
//
// The schedule ends at the first due time at or after the stop time that
// RequestStop() fixes; requests due before it are all issued, however
// late. `issue(i)` performs request i and returns false when it failed.
class OpenLoop {
 public:
  OpenLoop(Clock::time_point origin, double rate_hz) : origin_(origin), rate_hz_(rate_hz) {}

  Clock::time_point Due(uint64_t i) const {
    return origin_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(i) / rate_hz_));
  }

  // Thread-safe; the first call wins.
  void RequestStop(Clock::time_point stop_time);

  void Run(const std::function<bool(uint64_t)>& issue);

  // Latency (us, due -> completion) of every issued request, failed ones
  // included; failures are counted separately.
  const std::vector<double>& latencies_us() const { return latencies_us_; }
  // How late each request was sent (us, due -> send).
  const std::vector<double>& late_us() const { return late_us_; }
  uint64_t issued() const { return latencies_us_.size(); }
  uint64_t failed() const { return failed_; }

 private:
  Clock::time_point origin_;
  double rate_hz_;
  std::atomic<int64_t> stop_ns_{INT64_MAX};  // stop time since origin_
  std::vector<double> latencies_us_;
  std::vector<double> late_us_;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
