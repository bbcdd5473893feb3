#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.hpp"

namespace salign::msa {

/// Thread-safe recorder of a sequential aligner's internal phases (distance
/// matrix, guide tree, progressive pass, refinement). Each Sample-Align-D run
/// hands a fresh recorder to its default aligner, so a `--stats` run reports
/// where the sequential time went.
///
/// Phases are aggregated by name across calls and reported in first-seen
/// order. In a pipeline run one row folds every aligner call of the run:
/// each bucket of two or more sequences, plus the root's alignment of the
/// local ancestors when two or more exist (so at p=4 a phase typically
/// reads runs = 5).
class AlignerPhaseStats {
 public:
  struct Phase {
    std::string name;
    double wall_seconds = 0.0;  ///< summed across runs
    std::uint64_t runs = 0;
  };

  void record(std::string_view name, double wall_seconds);
  [[nodiscard]] std::vector<Phase> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Phase> phases_;
};

/// RAII phase timer: records on destruction. A null recorder makes it a
/// no-op.
class ScopedPhase {
 public:
  ScopedPhase(AlignerPhaseStats* stats, std::string_view name)
      : stats_(stats), name_(name) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (stats_ != nullptr) stats_->record(name_, watch_.seconds());
  }

 private:
  AlignerPhaseStats* stats_;
  std::string name_;
  util::Stopwatch watch_;
};

}  // namespace salign::msa
