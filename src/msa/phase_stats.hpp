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
/// where the sequential time went and which phases were served from the
/// process-wide artifact cache instead of recomputed.
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
    double wall_seconds = 0.0;  ///< summed across runs (cache hits included)
    std::uint64_t runs = 0;
    std::uint64_t cache_hits = 0;
  };

  void record(std::string_view name, double wall_seconds, bool cache_hit);
  [[nodiscard]] std::vector<Phase> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Phase> phases_;
};

/// RAII phase timer: records on destruction; call hit() when the phase's
/// value came from the artifact cache. A null recorder makes it a no-op.
class ScopedPhase {
 public:
  ScopedPhase(AlignerPhaseStats* stats, std::string_view name)
      : stats_(stats), name_(name) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (stats_ != nullptr) stats_->record(name_, watch_.seconds(), hit_);
  }

  void hit() { hit_ = true; }

 private:
  AlignerPhaseStats* stats_;
  std::string name_;
  util::Stopwatch watch_;
  bool hit_ = false;
};

}  // namespace salign::msa
