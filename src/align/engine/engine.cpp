#include "align/engine/engine.hpp"

#include "align/engine/gotoh.hpp"

namespace salign::align::engine {

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
