#include "core/pipeline_stats.hpp"

#include <algorithm>
#include <sstream>

#include "align/engine/simd.hpp"
#include "util/table.hpp"

namespace salign::core {

double StageStats::max_seconds() const {
  double m = 0.0;
  for (double s : rank_seconds) m = std::max(m, s);
  return m;
}

double StageStats::max_wall_seconds() const {
  double m = 0.0;
  for (double s : rank_wall_seconds) m = std::max(m, s);
  return m;
}

double StageStats::comm_seconds(const par::ClusterCostModel& model,
                                int p) const {
  switch (pattern) {
    case CommPattern::None: return 0.0;
    case CommPattern::Gather: return model.gather(max_bytes_per_rank, p);
    case CommPattern::Broadcast:
    case CommPattern::AllGather:
      // A broadcast sender records its total outbound bytes, message ×
      // (p-1), and broadcast() already charges p-1 messages — so charge it
      // one message's worth. An all-gather is p concurrent flat trees,
      // charged as the slowest rank's outbound serialization.
      if (p <= 1) return 0.0;
      return model.broadcast(
          max_bytes_per_rank / static_cast<std::uint64_t>(p - 1), p);
    case CommPattern::AllToAll: return model.all_to_all(max_bytes_per_rank, p);
  }
  return 0.0;
}

std::uint64_t PipelineStats::total_bytes() const {
  std::uint64_t t = 0;
  for (const auto& s : stages) t += s.total_bytes;
  return t;
}

double PipelineStats::total_compute_seconds() const {
  double t = 0.0;
  for (const auto& s : stages) t += s.max_seconds();
  return t;
}

double PipelineStats::modeled_seconds(const par::ClusterCostModel& model) const {
  double t = 0.0;
  for (const auto& s : stages)
    t += s.max_seconds() + s.comm_seconds(model, num_procs);
  return t;
}

double PipelineStats::load_factor() const {
  if (bucket_sizes.empty() || num_sequences == 0 || num_procs == 0) return 0.0;
  const std::size_t max_bucket =
      *std::max_element(bucket_sizes.begin(), bucket_sizes.end());
  const double share = static_cast<double>(num_sequences) /
                       static_cast<double>(num_procs);
  return share > 0.0 ? static_cast<double>(max_bucket) / share : 0.0;
}

std::string PipelineStats::summary() const {
  const par::ClusterCostModel model;
  util::Table table(
      {"stage", "max rank s", "max wall s", "comm s (model)", "bytes"});
  for (const auto& s : stages) {
    table.add_row({s.name, util::fmt("%.4f", s.max_seconds()),
                   util::fmt("%.4f", s.max_wall_seconds()),
                   util::fmt("%.6f", s.comm_seconds(model, num_procs)),
                   std::to_string(s.total_bytes)});
  }
  std::ostringstream os;
  os << "Sample-Align-D pipeline: N=" << num_sequences << " p=" << num_procs
     << " threads/rank=" << threads << '\n'
     << table.to_string() << "buckets:";
  for (std::size_t b : bucket_sizes) os << ' ' << b;
  os << "  (load factor " << util::fmt("%.2f", load_factor()) << ", bound 2.0)"
     << '\n'
     << "wall " << util::fmt("%.3f", wall_seconds) << " s; modeled cluster "
     << util::fmt("%.3f", modeled_seconds(model)) << " s; total "
     << total_bytes() << " bytes on the wire\n";
  if (!artifacts.empty()) {
    util::Table art({"stage artifact", "step", "bytes", "source", "s"});
    for (const auto& a : artifacts) {
      art.add_row({a.name, a.paper_step > 0 ? std::to_string(a.paper_step) : "-",
                   std::to_string(a.bytes), a.resumed ? "resumed" : "computed",
                   util::fmt("%.4f", a.seconds)});
    }
    os << art.to_string() << resumed_stages << " of " << artifacts.size()
       << " stages resumed from checkpoint\n";
  }
  if (!aligner_phases.empty()) {
    util::Table ph({"aligner phase", "wall s", "runs"});
    for (const auto& a : aligner_phases) {
      ph.add_row({a.name, util::fmt("%.4f", a.wall_seconds),
                  std::to_string(a.runs)});
    }
    os << ph.to_string();
  }
  for (const std::string& note : quarantine_notes)
    os << "checkpoint: " << note << '\n';
  constexpr int kLanes = align::engine::VecF::kLanes;
  os << "alignment engine: " << (kLanes > 1 ? "vector" : "scalar") << " ("
     << kLanes << " lanes)\n";
  return os.str();
}

}  // namespace salign::core
