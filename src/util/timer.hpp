#pragma once

#include <ctime>

#include <chrono>
#include <string>
#include <utility>

namespace salign::util {

/// Monotonic wall-clock stopwatch.
///
/// Used throughout the benchmark harness and the pipeline stage
/// instrumentation. The clock is `steady_clock`, so timings are immune to
/// system clock adjustments.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID).
///
/// The pipeline runs every simulated rank's segment concurrently on the
/// host's cores; wall-clock per-rank timings would be inflated by
/// scheduler contention. CPU time measures the work a rank actually did,
/// which is what the cluster cost model charges as "dedicated node" compute
/// (see README "Parallelism model").
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  /// CPU seconds consumed by the calling thread since construction.
  [[nodiscard]] double seconds() const { return now() - start_; }

  static double now() {
    ::timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

 private:
  double start_;
};

}  // namespace salign::util
