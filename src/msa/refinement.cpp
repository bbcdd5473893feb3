#include "msa/refinement.hpp"

#include <stdexcept>

#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/scoring.hpp"

namespace salign::msa {

namespace {

/// Minimum gain, on the PSP objective and on the SP delta, for accepting a
/// re-alignment.
constexpr float kMinGain = 1e-4F;

}  // namespace

std::size_t refine(Alignment& aln, const GuideTree& tree,
                   const bio::SubstitutionMatrix& matrix,
                   const RefineOptions& opts,
                   std::span<const double> weights) {
  if (tree.num_leaves() != aln.num_rows())
    throw std::invalid_argument("refine: tree/alignment leaf count mismatch");
  if (!weights.empty() && weights.size() != aln.num_rows())
    throw std::invalid_argument("refine: weights size mismatch");
  if (aln.num_rows() < 2) return 0;

  const std::size_t all_rows = aln.num_rows();
  std::size_t accepted = 0;

  for (int pass = 0; pass < opts.passes; ++pass) {
    bool any_accept = false;
    for (int id : tree.postorder()) {
      if (id == tree.root()) continue;

      // Bipartition rows by the edge above node `id` (row l is leaf l, and
      // leaves_under is sorted).
      const std::vector<int> leaves = tree.leaves_under(id);
      const std::vector<std::size_t> group_a(leaves.begin(), leaves.end());
      if (group_a.empty() || group_a.size() == all_rows) continue;

      std::vector<std::size_t> group_b;
      group_b.reserve(all_rows - group_a.size());
      {
        std::size_t ai = 0;
        for (std::size_t r = 0; r < all_rows; ++r) {
          if (ai < group_a.size() && group_a[ai] == r)
            ++ai;
          else
            group_b.push_back(r);
        }
      }

      // Degapped sub-alignments and their profiles.
      const RowSplit split = split_rows(aln, group_a, group_b);
      const Profile pa(split.a, matrix, gather_weights(weights, group_a));
      const Profile pb(split.b, matrix, gather_weights(weights, group_b));

      ProfileAlignOptions po;
      po.gaps = opts.gaps;

      const std::vector<align::EditOp> current =
          implied_path(aln, group_a, group_b);
      const float current_score = score_profile_path(pa, pb, current, po);
      const ProfileAlignResult fresh = align_profiles(pa, pb, po);
      if (fresh.score <= current_score + kMinGain) continue;

      Alignment candidate = rejoin_rows(split, fresh.ops);

      // Gate on the true cross-group sum-of-pairs delta too (the profile DP
      // *proposes* the re-alignment; this rejects PSP wins that lose SP —
      // MUSCLE's own refinement accepts on SP). Only cross-group pairs
      // change under a bipartition re-alignment (within-group columns are
      // carried over verbatim), so the delta needs |A|*|B| induced pair
      // scores, not all pairs.
      double delta = 0.0;
      for (const std::size_t ra : group_a)
        for (const std::size_t rb : group_b)
          delta += induced_pair_score(candidate, ra, rb, matrix, opts.gaps) -
                   induced_pair_score(aln, ra, rb, matrix, opts.gaps);
      if (delta <= kMinGain) continue;

      aln = std::move(candidate);
      ++accepted;
      any_accept = true;
    }
    if (!any_accept) break;  // converged
  }
  return accepted;
}

}  // namespace salign::msa
