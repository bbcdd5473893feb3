#pragma once

#include "bio/substitution_matrix.hpp"
#include "kmer/kmer_profile.hpp"
#include "msa/msa_algorithm.hpp"
#include "msa/phase_stats.hpp"
#include "util/matrix.hpp"

namespace salign::msa {

/// MUSCLE's stage-2 distances: the Kimura distance of every row pair's
/// identity as induced by an existing alignment (columns where both rows
/// hold a residue; identical codes count as matches). Each row is encoded
/// once into a presence plane and 5 code bit-planes of 64-column words, so
/// a pair costs two popcounts per word instead of a byte test per column;
/// the counts, and so the distances, are exactly the byte loop's. Rides the
/// threaded align::pairwise_distance_matrix driver (bit-identical for any
/// thread count).
[[nodiscard]] util::SymmetricMatrix<double> induced_kimura_distances(
    const Alignment& aln, unsigned threads);

/// The same over raw rows, which need not form a valid Alignment. Throws
/// std::invalid_argument on ragged rows, or on a cell that is neither
/// Alignment::kGap nor a code below 32, rather than alias it.
[[nodiscard]] util::SymmetricMatrix<double> induced_kimura_distances(
    std::span<const AlignedRow> rows, unsigned threads);

/// Configuration of the MUSCLE-style aligner.
struct MuscleOptions {
  /// Stage-1 guide-tree distance source.
  enum class GuideTree : std::uint8_t {
    /// k-mer profile distances (MUSCLE's choice; the historical default).
    kKmer,
    /// Score-only global-alignment distances through the striped integer
    /// engine (align::score_distance_matrix) — the "fast guide-tree mode":
    /// O(N^2 L^2) work but no tracebacks and 3-4x kernel throughput, giving
    /// alignment-quality trees on inputs where k-mer distances wash out.
    /// Changes guide trees (and thus alignments); thread counts still
    /// never do.
    kScore,
  };
  GuideTree stage1_distance = GuideTree::kKmer;
  /// k-mer parameters of the stage-1 distance estimate (kKmer mode).
  kmer::KmerParams kmer{};
  /// Second progressive iteration with Kimura distances recomputed from the
  /// stage-1 alignment (MUSCLE's "improved progressive" stage 2).
  bool reestimate_tree = true;
  /// Tree-bipartition refinement sweeps (MUSCLE stage 3); 0 disables.
  /// The paper's large-N timings quote MUSCLE "without refinement", so the
  /// pipeline default keeps this at 0 and the quality benches turn it on.
  int refine_passes = 0;
  /// Worker threads (1 = serial) of every parallel pass: the stage-1 k-mer
  /// distances (kKmer mode) or score distances (kScore mode), the stage-2
  /// induced-Kimura distance matrix, and both progressive merge schedules.
  /// Any value produces bit-identical alignments.
  unsigned threads = 1;
  /// Optional per-phase wall-time recorder (not owned; must outlive the
  /// aligner). Never affects output.
  AlignerPhaseStats* phase_stats = nullptr;
};

/// "MiniMuscle": a from-scratch reimplementation of the MUSCLE pipeline
/// (Edgar, NAR 2004 & BMC Bioinf. 2004) — the sequential MSA system the
/// paper runs inside every processor and benchmarks against:
///
///   stage 1: k-mer distance matrix (compressed alphabet) -> UPGMA ->
///            progressive PSP alignment;
///   stage 2: Kimura distances from the induced pairwise identities ->
///            rebuilt UPGMA tree -> re-aligned progressively;
///   stage 3: optional tree-bipartition refinement.
///
/// Asymptotics match the paper's cost table: O(N^2) distance terms plus
/// O(N L^2) profile alignments per progressive pass.
class MuscleAligner final : public MsaAlgorithm {
 public:
  explicit MuscleAligner(MuscleOptions options = {},
                         const bio::SubstitutionMatrix& matrix =
                             bio::SubstitutionMatrix::blosum62());

  [[nodiscard]] Alignment align(
      std::span<const bio::Sequence> seqs) const override;

  [[nodiscard]] std::string name() const override;

  /// Full output-determining identity: algorithm tag, stage-1 mode, k-mer
  /// params, stage-2/3 switches and the scoring matrix. threads and
  /// phase_stats are excluded — they never change output.
  void hash_config(util::StableHash& h) const override;

  [[nodiscard]] const MuscleOptions& options() const { return options_; }

 private:
  MuscleOptions options_;
  const bio::SubstitutionMatrix* matrix_;
};

}  // namespace salign::msa
