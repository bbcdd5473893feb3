#pragma once

#include <cstddef>
#include <limits>
#include <span>

#include "align/pairwise.hpp"

namespace salign::align {

/// Shared "effectively minus infinity" sentinel for float DP cells.
///
/// A quarter of FLT_MAX leaves headroom so that the affine recurrences can
/// keep subtracting gap penalties from unreachable cells without ever
/// overflowing to -inf or producing NaN: the sentinel's magnitude (~8.5e37)
/// is so large that subtracting any realistic penalty (or even millions of
/// accumulated extends) is absorbed by float rounding — kNegInf - x == kNegInf
/// for every |x| < 2^-1 ULP(kNegInf) ≈ 2e30. Reachable cells always win
/// comparisons against it by ~1e37, so it never perturbs an optimal path.
/// Covered by EngineNegInf.* in tests/align_engine_test.cpp.
inline constexpr float kNegInf = -0.25F * std::numeric_limits<float>::max();

namespace engine {

/// Global (Needleman–Wunsch/Gotoh) alignment lives in batch.hpp:
/// engine::ScoreBatch (score only, O(m + n) workspace) and
/// engine::AlignBatch (score + checkpointed traceback) profile one query
/// once and run the int8 -> int16 -> float promotion ladder against each
/// counterpart. A one-off pair is AlignBatch(a, matrix, gaps).align(b).

/// Banded global alignment: the DP is restricted to a diagonal band of
/// half-width `band`, widened by the length difference so the (m, n) corner
/// stays inside. The MAFFT-style aligner and banded distance passes use it
/// once the band is known, dropping the DP cost from O(L^2) to O(L·band).
[[nodiscard]] PairwiseAlignment banded_global_align(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps,
    std::size_t band);

/// Local (Smith–Waterman) alignment, checkpointed traceback. Returns the
/// best-scoring local path and its start offsets; an empty path (score 0)
/// means no positive-scoring region exists.
[[nodiscard]] LocalAlignment local_align(std::span<const std::uint8_t> a,
                                         std::span<const std::uint8_t> b,
                                         const bio::SubstitutionMatrix& matrix,
                                         bio::GapPenalties gaps);

/// Retained scalar reference kernels: the pre-engine row-major
/// implementations with a full traceback matrix. They define the exact
/// score/traceback semantics the engine must reproduce and exist solely as
/// the oracle for the randomized differential tests (and as readable
/// documentation of the recurrences).
namespace reference {

[[nodiscard]] PairwiseAlignment global_align(std::span<const std::uint8_t> a,
                                             std::span<const std::uint8_t> b,
                                             const bio::SubstitutionMatrix& matrix,
                                             bio::GapPenalties gaps);

[[nodiscard]] PairwiseAlignment banded_global_align(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps,
    std::size_t band);

[[nodiscard]] LocalAlignment local_align(std::span<const std::uint8_t> a,
                                         std::span<const std::uint8_t> b,
                                         const bio::SubstitutionMatrix& matrix,
                                         bio::GapPenalties gaps);

}  // namespace reference

}  // namespace engine
}  // namespace salign::align
