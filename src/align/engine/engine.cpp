#include "align/engine/engine.hpp"

#include "align/engine/batch.hpp"
#include "align/engine/gotoh.hpp"

namespace salign::align::engine {

const char* tier_name(ScoreTier tier) {
  switch (tier) {
    case ScoreTier::kAuto: return "auto";
    case ScoreTier::kInt8: return "int8";
    case ScoreTier::kInt16: return "int16";
    default: return "float";
  }
}

float global_score(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b,
                   const bio::SubstitutionMatrix& matrix,
                   bio::GapPenalties gaps, std::size_t* workspace_bytes,
                   ScoreTier first_tier) {
  if (a.empty() || b.empty()) {
    if (workspace_bytes != nullptr) *workspace_bytes = 0;
    return detail::empty_edge_align(a.size(), b.size(), gaps).score;
  }
  ScoreBatch batch(a, matrix, gaps, first_tier);
  const float score = batch.score(b);
  if (workspace_bytes != nullptr) *workspace_bytes = batch.workspace_bytes();
  return score;
}

PairwiseAlignment global_align(std::span<const std::uint8_t> a,
                               std::span<const std::uint8_t> b,
                               const bio::SubstitutionMatrix& matrix,
                               bio::GapPenalties gaps, ScoreTier first_tier) {
  // One-shot calls run the full AlignBatch tier ladder too: the striped
  // integer traceback tiers are bit-identical to the float kernels, and the
  // O(alphabet * m) profile build is amortized by the O(m * n) DP. Callers
  // aligning one query against many should build the AlignBatch themselves.
  if (a.empty() || b.empty())
    return detail::empty_edge_align(a.size(), b.size(), gaps);
  AlignBatch batch(a, matrix, gaps, first_tier);
  return batch.align(b);
}

PairwiseAlignment banded_global_align(std::span<const std::uint8_t> a,
                                      std::span<const std::uint8_t> b,
                                      const bio::SubstitutionMatrix& matrix,
                                      bio::GapPenalties gaps,
                                      std::size_t band) {
  if (a.empty() || b.empty())
    return detail::empty_edge_align(a.size(), b.size(), gaps);
  return detail::global_align_impl(a, b, matrix, gaps, band, true);
}

LocalAlignment local_align(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b,
                           const bio::SubstitutionMatrix& matrix,
                           bio::GapPenalties gaps) {
  if (a.empty() || b.empty()) return {};
  return detail::local_align_impl(a, b, matrix, gaps);
}

}  // namespace salign::align::engine
