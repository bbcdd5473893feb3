#pragma once

// Internal float-kernel entry points of the alignment engine. Only the
// engine's own sources (engine.cpp, batch.cpp) include this; everything else
// goes through align/engine/engine.hpp.

#include <cstddef>
#include <cstdint>
#include <span>

#include "align/pairwise.hpp"

namespace salign::align::engine::detail {

/// Score-only affine-gap global alignment over anti-diagonals. O(m + n)
/// workspace; `banded` selects the sheared-band cell set of
/// banded_global_align. `workspace_bytes` (optional) receives the total DP
/// workspace allocated.
float global_score_impl(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b,
                        const bio::SubstitutionMatrix& matrix,
                        bio::GapPenalties gaps, std::size_t band, bool banded,
                        std::size_t* workspace_bytes);

/// Full global alignment: anti-diagonal forward pass with row checkpoints
/// every ~sqrt(m) rows, then block-wise recompute during traceback. Exact
/// score/op/tie-break parity with the reference kernels.
PairwiseAlignment global_align_impl(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b,
                                    const bio::SubstitutionMatrix& matrix,
                                    bio::GapPenalties gaps, std::size_t band,
                                    bool banded);

/// Global alignment of an m-residue sequence against an n-residue one when
/// either is empty: one gap run of max(m, n) ops (score 0 when both are
/// empty). Every global entry point, score-only ones included, answers
/// degenerate pairs with this before any kernel runs.
PairwiseAlignment empty_edge_align(std::size_t m, std::size_t n,
                                   bio::GapPenalties gaps);

/// Full local (Smith–Waterman) alignment with the same checkpointed
/// traceback machinery.
LocalAlignment local_align_impl(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b,
                                const bio::SubstitutionMatrix& matrix,
                                bio::GapPenalties gaps);

}  // namespace salign::align::engine::detail
