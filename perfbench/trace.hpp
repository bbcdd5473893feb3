#pragma once

// In-memory span recorder of the benchmark's traced replay. Spans are kept
// in memory for the whole run and written out once at the end (Chrome
// trace-event JSON); nothing here touches the program under test.

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();
/// CPU seconds of the whole process (all threads) and of the calling thread.
double process_cpu_s();
double thread_cpu_s();

struct Span {
  std::string name;
  int id = -1;
  int parent = -1;  ///< -1: top level of its run (on the blocking path)
  int run = 0;      ///< one input (a case, or the single workload input)
  int rank = 0;     ///< simulated processor the span ran on
  unsigned threads = 1;  ///< threads the traced call was allowed to use
  double start = 0.0;
  double end = 0.0;
  double cpu = 0.0;   ///< process CPU (or thread CPU for rank workers)
  double work = 0.0;  ///< layer-specific work count (pairs, merges, ...)
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one span from construction to destruction. A disabled tracer
  /// makes every scope a no-op with id -1.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int parent, int run, int rank,
          unsigned threads, bool thread_cpu);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int id() const { return span_.id; }
    void add_work(double w) { span_.work += w; }

   private:
    Tracer& tracer_;
    Span span_;
    bool thread_cpu_;
  };

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  void add(Span s);

  bool enabled_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Per-layer totals over a span set. For each span name, times are summed
/// per (run, rank) and the blocking path takes the max over ranks, summed
/// over runs; cpu, wall x threads, wall and work are plain sums.
struct LayerTotal {
  double blocking_s = 0.0;
  double cpu_s = 0.0;
  double wall_threads_s = 0.0;
  double wall_s = 0.0;
  double work = 0.0;
  [[nodiscard]] double cpu_util() const {
    return wall_threads_s > 0 ? cpu_s / wall_threads_s : 0.0;
  }
  [[nodiscard]] double work_per_s() const {
    return wall_s > 0 ? work / wall_s : 0.0;
  }
};
std::map<std::string, LayerTotal> layer_totals(const std::vector<Span>& spans);

/// Sum of top-level span durations (the blocking path of a sequential
/// replay; rank-parallel stages are wrapped in one top-level stage span).
double top_level_seconds(const std::vector<Span>& spans);

/// Writes spans as a Chrome trace-event file (pid = run, tid = rank).
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench
