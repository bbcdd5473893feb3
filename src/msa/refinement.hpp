#pragma once

#include <span>
#include <vector>

#include "bio/substitution_matrix.hpp"
#include "msa/alignment.hpp"
#include "msa/guide_tree.hpp"

namespace salign::msa {

/// Options for tree-bipartition iterative refinement (MUSCLE stage 3 /
/// MAFFT's "-i" step).
struct RefineOptions {
  /// Full sweeps over all internal edges.
  int passes = 1;
  bio::GapPenalties gaps;
};

/// Refines `aln` by repeatedly deleting a guide-tree edge, splitting the
/// rows into the two leaf sets, degapping each side and re-aligning the two
/// profiles. A re-alignment is kept only when it beats the incumbent on both
/// the PSP objective of the split and the cross-group sum-of-pairs score
/// (each by more than 1e-4, which guards float noise and churn). Row order
/// of `aln` is preserved.
///
/// `tree` must be the guide tree over the same sequences, with row l of
/// `aln` carrying leaf l — the row order progressive_align returns.
/// `weights` are per-row sequence weights (empty = uniform). Returns the
/// number of accepted re-alignments.
std::size_t refine(Alignment& aln, const GuideTree& tree,
                   const bio::SubstitutionMatrix& matrix,
                   const RefineOptions& opts,
                   std::span<const double> weights = {});

}  // namespace salign::msa
