#include "stats.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) {
    return 0;
  }
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

uint64_t TrimmedResidentBytes() {
  ::malloc_trim(0);
  return ResidentBytes();
}

uint64_t PeakResidentBytes() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Index (0-based) of the nearest-rank pct-th percentile among n samples.
size_t RankIndex(size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double pct) {
  return sorted[RankIndex(sorted.size(), pct)];
}

size_t SamplesBeyond(size_t n, double pct) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, pct);
}

Tail TailPercentile(std::vector<double> samples, double max_pct) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct > max_pct + 1e-9) {
      continue;
    }
    tail.pct = pct;
    tail.value = NearestRank(samples, pct);
    tail.qualified = SamplesBeyond(samples.size(), pct) >= kMinBeyond;
    if (tail.qualified) {
      break;
    }
  }
  return tail;
}

void OpenLoop::RequestStop(Clock::time_point stop_time) {
  const int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop_time - origin_).count();
  int64_t expected = INT64_MAX;
  stop_ns_.compare_exchange_strong(expected, ns);
}

void OpenLoop::Run(const std::function<bool(uint64_t)>& issue) {
  for (uint64_t i = 0;; ++i) {
    const Clock::time_point due = Due(i);
    // Wait for the due time, waking early when a stop is requested so the
    // loop can tell whether this slot still falls inside the schedule.
    for (;;) {
      const int64_t stop_ns = stop_ns_.load();
      if (due - origin_ >= std::chrono::nanoseconds(stop_ns)) {
        return;
      }
      const Clock::time_point now = Clock::now();
      if (now >= due) {
        break;
      }
      // Sleep in slices of at most 1 ms, and spin through the last 200 us:
      // a sleep's wake-up jitter would otherwise count as request latency.
      const auto left = due - now;
      if (left > std::chrono::microseconds(300)) {
        std::this_thread::sleep_for(std::min<Clock::duration>(
            left - std::chrono::microseconds(200), std::chrono::milliseconds(1)));
      }
    }
    const Clock::time_point sent = Clock::now();
    const bool ok = issue(i);
    const Clock::time_point done = Clock::now();
    late_us_.push_back(MicrosBetween(due, sent));
    latencies_us_.push_back(MicrosBetween(due, done));
    if (!ok) {
      ++failed_;
    }
  }
}

}  // namespace perfbench
