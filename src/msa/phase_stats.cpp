#include "msa/phase_stats.hpp"

#include <mutex>

namespace salign::msa {

void AlignerPhaseStats::record(std::string_view name, double wall_seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Phase& p : phases_) {
    if (p.name == name) {
      p.wall_seconds += wall_seconds;
      ++p.runs;
      return;
    }
  }
  Phase p;
  p.name = std::string(name);
  p.wall_seconds = wall_seconds;
  p.runs = 1;
  phases_.push_back(std::move(p));
}

std::vector<AlignerPhaseStats::Phase> AlignerPhaseStats::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return phases_;
}

}  // namespace salign::msa
