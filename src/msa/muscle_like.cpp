#include "msa/muscle_like.hpp"

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "align/distance.hpp"
#include "bio/content_hash.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/guide_tree.hpp"
#include "msa/progressive.hpp"
#include "msa/refinement.hpp"

namespace salign::msa {

namespace {

/// Code bit-planes per word: every alphabet's codes are below 21 < 2^5.
constexpr std::size_t kCodeBits = 5;
/// Planes per 64-column word: one presence plane (cell is not a gap), then
/// the code bit-planes.
constexpr std::size_t kPlanes = 1 + kCodeBits;

}  // namespace

util::SymmetricMatrix<double> induced_kimura_distances(const Alignment& aln,
                                                       unsigned threads) {
  return induced_kimura_distances(aln.rows(), threads);
}

util::SymmetricMatrix<double> induced_kimura_distances(
    std::span<const AlignedRow> rows, unsigned threads) {
  const std::size_t n = rows.size();
  const std::size_t width = n == 0 ? 0 : rows.front().cells.size();
  const std::size_t words = (width + 63) / 64;
  const std::size_t row_stride = words * kPlanes;

  // Row r's word w sits at planes[r * row_stride + w * kPlanes]: presence
  // first, then code bit k at offset 1 + k. Gap cells and the padding past
  // `width` are all-zero, so they drop out of every count.
  std::vector<std::uint64_t> planes(n * row_stride, 0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto& cells = rows[r].cells;
    if (cells.size() != width)
      throw std::invalid_argument("induced_kimura_distances: ragged rows");
    std::uint64_t* out = planes.data() + r * row_stride;
    for (std::size_t c = 0; c < width; ++c) {
      const std::uint8_t code = cells[c];
      if (code == Alignment::kGap) continue;
      if (code >> kCodeBits != 0)
        throw std::invalid_argument(
            "induced_kimura_distances: code " + std::to_string(code) +
            " does not fit the 5 code bit-planes");
      std::uint64_t* word = out + (c / 64) * kPlanes;
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      word[0] |= bit;
      for (std::size_t k = 0; k < kCodeBits; ++k)
        if ((code >> k) & 1U) word[1 + k] |= bit;
    }
  }

  return align::pairwise_distance_matrix(
      n, threads, [&](std::size_t i, std::size_t j) {
        const std::uint64_t* a = planes.data() + i * row_stride;
        const std::uint64_t* b = planes.data() + j * row_stride;
        std::size_t cols = 0;
        std::size_t matches = 0;
        for (std::size_t w = 0; w < words; ++w, a += kPlanes, b += kPlanes) {
          const std::uint64_t both = a[0] & b[0];
          std::uint64_t differ = 0;
          for (std::size_t k = 1; k < kPlanes; ++k) differ |= a[k] ^ b[k];
          cols += static_cast<std::size_t>(std::popcount(both));
          matches += static_cast<std::size_t>(std::popcount(both & ~differ));
        }
        const double identity =
            cols == 0
                ? 0.0
                : static_cast<double>(matches) / static_cast<double>(cols);
        return align::kimura_distance(identity);
      });
}

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
