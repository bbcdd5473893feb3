#include "msa/muscle_like.hpp"

#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "align/distance.hpp"
#include "bio/content_hash.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/guide_tree.hpp"
#include "msa/progressive.hpp"
#include "msa/refinement.hpp"

namespace salign::msa {

namespace {

/// Kimura distances from the identities induced by an existing alignment —
/// much cheaper than re-aligning pairs, and exactly MUSCLE's stage-2 trick.
/// An O(N^2 L) distance-matrix pass, so it rides the threaded all-pairs
/// driver (bit-identical output for any thread count).
util::SymmetricMatrix<double> induced_kimura_distances(const Alignment& aln,
                                                       unsigned threads) {
  return align::pairwise_distance_matrix(
      aln.num_rows(), threads, [&](std::size_t i, std::size_t j) {
        const auto& a = aln.row(i).cells;
        const auto& b = aln.row(j).cells;
        std::size_t cols = 0;
        std::size_t matches = 0;
        for (std::size_t c = 0; c < a.size(); ++c) {
          if (a[c] == Alignment::kGap || b[c] == Alignment::kGap) continue;
          ++cols;
          if (a[c] == b[c]) ++matches;
        }
        const double identity =
            cols == 0
                ? 0.0
                : static_cast<double>(matches) / static_cast<double>(cols);
        return align::kimura_distance(identity);
      });
}

}  // namespace

MuscleAligner::MuscleAligner(MuscleOptions options,
                             const bio::SubstitutionMatrix& matrix)
    : options_(options), matrix_(&matrix) {}

std::string MuscleAligner::name() const {
  std::string n = "MiniMuscle";
  if (options_.stage1_distance == MuscleOptions::GuideTree::kScore)
    n += "+score-tree";
  if (options_.refine_passes > 0) n += "+refine";
  return n;
}

void MuscleAligner::hash_config(util::StableHash& h) const {
  h.str("salign.muscle.v1");
  h.u8(static_cast<std::uint8_t>(options_.stage1_distance));
  h.u32(static_cast<std::uint32_t>(options_.kmer.k));
  h.u8(options_.kmer.compressed ? 1 : 0);
  h.u8(options_.reestimate_tree ? 1 : 0);
  h.u32(static_cast<std::uint32_t>(options_.refine_passes));
  bio::hash_matrix(h, *matrix_);
}

Alignment MuscleAligner::align(std::span<const bio::Sequence> seqs) const {
  if (seqs.empty()) throw std::invalid_argument("MuscleAligner: no sequences");
  if (seqs.size() == 1) return Alignment::from_sequence(seqs[0]);

  {
    std::unordered_map<std::string, int> ids;
    for (const auto& s : seqs)
      if (++ids[s.id()] > 1)
        throw std::invalid_argument("MuscleAligner: duplicate id " + s.id());
  }

  AlignerPhaseStats* ps = options_.phase_stats;

  // Stage 1: k-mer (or engine score) distances -> UPGMA -> progressive.
  const util::SymmetricMatrix<double> kd = [&] {
    ScopedPhase phase(ps, "stage1 distance matrix");
    if (options_.stage1_distance == MuscleOptions::GuideTree::kScore) {
      align::ScoreDistanceOptions sdo;
      sdo.threads = options_.threads;
      return align::score_distance_matrix(seqs, *matrix_,
                                          matrix_->default_gaps(), sdo);
    }
    return kmer::distance_matrix(seqs, options_.kmer, options_.threads);
  }();
  GuideTree tree = [&] {
    ScopedPhase phase(ps, "stage1 guide tree");
    return GuideTree::upgma(kd);
  }();
  ProgressiveOptions po;
  po.gaps = matrix_->default_gaps();
  po.weights = tree.leaf_weights();
  po.threads = options_.threads;
  Alignment aln = [&] {
    ScopedPhase phase(ps, "stage1 progressive");
    return progressive_align(seqs, tree, *matrix_, po);
  }();

  // Stage 2: Kimura distances from the stage-1 alignment, rebuilt tree,
  // re-aligned.
  if (options_.reestimate_tree) {
    const util::SymmetricMatrix<double> kim = [&] {
      ScopedPhase phase(ps, "stage2 distance matrix");
      return induced_kimura_distances(aln, options_.threads);
    }();
    {
      ScopedPhase phase(ps, "stage2 guide tree");
      tree = GuideTree::upgma(kim);
    }
    po.weights = tree.leaf_weights();
    {
      ScopedPhase phase(ps, "stage2 progressive");
      aln = progressive_align(seqs, tree, *matrix_, po);
    }
  }

  // Stage 3: optional refinement.
  if (options_.refine_passes > 0) {
    ScopedPhase phase(ps, "refine");
    RefineOptions ro;
    ro.passes = options_.refine_passes;
    ro.gaps = matrix_->default_gaps();
    refine(aln, tree, *matrix_, ro, po.weights);
  }

  aln.validate();
  return aln;
}

std::shared_ptr<const MsaAlgorithm> make_default_aligner(unsigned threads) {
  MuscleOptions o;
  o.threads = threads;
  return std::make_shared<MuscleAligner>(o);
}

}  // namespace salign::msa
