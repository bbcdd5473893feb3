#include "msa/progressive.hpp"

#include <stdexcept>

#include "msa/profile.hpp"
#include "msa/tree_schedule.hpp"

namespace salign::msa {

Alignment TreeAlignment::in_input_order() const {
  std::vector<std::size_t> perm(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) perm[rows[r]] = r;
  return aln.subset(perm);
}

TreeAlignment merge_along_tree(std::span<const bio::Sequence> seqs,
                               const GuideTree& tree, unsigned threads,
                               const MergePathFn& path) {
  if (seqs.empty())
    throw std::invalid_argument("merge_along_tree: no sequences");
  if (tree.num_leaves() != seqs.size())
    throw std::invalid_argument("merge_along_tree: tree/sequence mismatch");

  // Partial alignments per tree node and the input indices of their rows,
  // both freed as soon as the node is merged into its parent.
  std::vector<Alignment> partial(tree.num_nodes());
  std::vector<std::vector<std::size_t>> rows(tree.num_nodes());

  // Each node is one task of the dependency-counting schedule: leaves are
  // trivial conversions, internal nodes merge their two (completed)
  // children. A task touches only its own node's slots and its children's,
  // so results are bit-identical for every thread count.
  schedule_tree(tree, threads, [&](int id) {
    const auto u = static_cast<std::size_t>(id);
    const TreeNode& nd = tree.node(u);
    if (tree.is_leaf(u)) {
      const auto leaf = static_cast<std::size_t>(nd.leaf_index);
      partial[u] = Alignment::from_sequence(seqs[leaf]);
      rows[u] = {leaf};
      return;
    }
    const auto l = static_cast<std::size_t>(nd.left);
    const auto r = static_cast<std::size_t>(nd.right);
    const std::vector<align::EditOp> ops =
        path(partial[l], rows[l], partial[r], rows[r]);
    partial[u] = merge_alignments(partial[l], partial[r], ops);
    rows[u].reserve(rows[l].size() + rows[r].size());
    rows[u].insert(rows[u].end(), rows[l].begin(), rows[l].end());
    rows[u].insert(rows[u].end(), rows[r].begin(), rows[r].end());
    partial[l] = Alignment{};
    partial[r] = Alignment{};
    rows[l] = std::vector<std::size_t>();
    rows[r] = std::vector<std::size_t>();
  });

  const auto root = static_cast<std::size_t>(tree.root());
  return {std::move(partial[root]), std::move(rows[root])};
}

Alignment progressive_align(std::span<const bio::Sequence> seqs,
                            const GuideTree& tree,
                            const bio::SubstitutionMatrix& matrix,
                            const ProgressiveOptions& opts) {
  if (!opts.weights.empty() && opts.weights.size() != seqs.size())
    throw std::invalid_argument("progressive_align: weight count mismatch");

  return merge_along_tree(
             seqs, tree, opts.threads,
             [&](const Alignment& left, std::span<const std::size_t> lrows,
                 const Alignment& right, std::span<const std::size_t> rrows) {
               ProfileAlignOptions po;
               po.gaps = opts.gaps;
               if (opts.band_provider) po.band = opts.band_provider(left, right);
               const Profile pl(left, matrix,
                                gather_weights(opts.weights, lrows));
               const Profile pr(right, matrix,
                                gather_weights(opts.weights, rrows));
               return align_profiles(pl, pr, po).ops;
             })
      .in_input_order();
}

}  // namespace salign::msa
