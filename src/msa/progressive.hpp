#pragma once

#include <functional>
#include <span>
#include <vector>

#include "bio/sequence.hpp"
#include "bio/substitution_matrix.hpp"
#include "msa/alignment.hpp"
#include "msa/guide_tree.hpp"
#include "msa/profile_align.hpp"

namespace salign::msa {

/// Column path of one guide-tree merge: the edit path (merge_alignments
/// semantics) that joins the left child's alignment to the right child's.
/// `left_rows[r]` / `right_rows[r]` are the input indices of the sequences
/// in row r of each child. Called concurrently for independent subtrees when
/// the driver runs with threads > 1, so it must be thread-safe.
using MergePathFn = std::function<std::vector<align::EditOp>(
    const Alignment& left, std::span<const std::size_t> left_rows,
    const Alignment& right, std::span<const std::size_t> right_rows)>;

/// Root of a guide-tree merge.
struct TreeAlignment {
  /// Rows in the tree's left-to-right leaf order.
  Alignment aln;
  /// rows[r] is the input index of the sequence in row r.
  std::vector<std::size_t> rows;

  /// The same alignment with row i carrying input sequence i.
  [[nodiscard]] Alignment in_input_order() const;
};

/// The guide-tree merge driver of every progressive aligner in the library
/// (PSP progressive, T-Coffee consistency, ProbCons MEA): turns each leaf
/// into a one-row alignment, merges every internal node's two children along
/// the column path `path` returns, and frees the children as soon as their
/// parent is built, so a run holds partial alignments for the live frontier
/// of the tree only. Nodes run on the msa::schedule_tree task engine with
/// `threads` workers; each merge is a pure function of its children, so the
/// result is bit-identical for every thread count.
[[nodiscard]] TreeAlignment merge_along_tree(
    std::span<const bio::Sequence> seqs, const GuideTree& tree,
    unsigned threads, const MergePathFn& path);

/// Options of the progressive driver.
struct ProgressiveOptions {
  bio::GapPenalties gaps;
  /// Per-sequence weights (CLUSTALW-style), indexed like the input; empty =
  /// uniform.
  std::vector<double> weights;
  /// Optional per-merge band chooser: given the two sub-alignments about to
  /// be merged, returns the band half-width (0 = full DP; unset = full DP
  /// everywhere). The MAFFT-style aligner plugs its FFT anchor detection in
  /// here. Must be thread-safe when threads > 1 (merges of independent
  /// subtrees call it concurrently).
  std::function<std::size_t(const Alignment&, const Alignment&)> band_provider;
  /// Worker threads of the guide-tree task schedule (1 = the serial
  /// postorder walk). Any value gives bit-identical output.
  unsigned threads = 1;
};

/// Aligns `seqs` progressively along `tree` (leaves index into `seqs`),
/// merging children profiles bottom-up with PSP profile-profile alignment
/// through merge_along_tree. Row i of the result carries `seqs[i]`.
[[nodiscard]] Alignment progressive_align(std::span<const bio::Sequence> seqs,
                                          const GuideTree& tree,
                                          const bio::SubstitutionMatrix& matrix,
                                          const ProgressiveOptions& opts = {});

}  // namespace salign::msa
