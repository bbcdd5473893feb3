#include "msa/probcons_like.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/distance.hpp"
#include "msa/guide_tree.hpp"
#include "msa/profile_align.hpp"
#include "msa/progressive.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace salign::msa {

namespace {

using align::EditOp;
using bio::Sequence;

/// Ordered-pair table of sparse posteriors: post(x, y) has |x| rows and
/// |y| columns; the diagonal is unused.
class PosteriorTable {
 public:
  explicit PosteriorTable(std::size_t n) : n_(n), table_(n * n) {}

  [[nodiscard]] const SparsePosterior& at(std::size_t x, std::size_t y) const {
    return table_[x * n_ + y];
  }
  SparsePosterior& at(std::size_t x, std::size_t y) {
    return table_[x * n_ + y];
  }

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  std::vector<SparsePosterior> table_;
};

/// One round of ProbCons's probabilistic consistency transform:
/// P'(x,y) = (1/N) [ 2 P(x,y) + Σ_{z≠x,y} P(x,z)·P(z,y) ]   (P(x,x) = I).
PosteriorTable relax(const PosteriorTable& in, double cutoff) {
  const std::size_t n = in.size();
  PosteriorTable out(n);
  std::vector<float> acc;
  std::vector<std::uint32_t> touched;
  std::vector<SparsePosterior::Entry> row;

  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      const SparsePosterior& pxy = in.at(x, y);
      SparsePosterior fresh(pxy.rows(), pxy.cols());
      acc.assign(pxy.cols(), 0.0F);
      const auto inv_n = static_cast<float>(1.0 / static_cast<double>(n));

      for (std::size_t i = 0; i < pxy.rows(); ++i) {
        touched.clear();
        // z == x and z == y each contribute the identity product P(x,y).
        for (const auto& e : pxy.row(i)) {
          if (acc[e.col] == 0.0F) touched.push_back(e.col);
          acc[e.col] += 2.0F * e.prob;
        }
        // Intermediate sequences.
        for (std::size_t z = 0; z < n; ++z) {
          if (z == x || z == y) continue;
          const SparsePosterior& pxz = in.at(x, z);
          const SparsePosterior& pzy = in.at(z, y);
          for (const auto& exz : pxz.row(i)) {
            for (const auto& ezy : pzy.row(exz.col)) {
              if (acc[ezy.col] == 0.0F) touched.push_back(ezy.col);
              acc[ezy.col] += exz.prob * ezy.prob;
            }
          }
        }
        std::sort(touched.begin(), touched.end());
        row.clear();
        for (std::uint32_t c : touched) {
          const float p = acc[c] * inv_n;
          if (p > static_cast<float>(cutoff))
            row.push_back(SparsePosterior::Entry{c, std::min(p, 1.0F)});
          acc[c] = 0.0F;
        }
        fresh.append_row(row);
      }
      out.at(y, x) = fresh.transposed();
      out.at(x, y) = std::move(fresh);
    }
  }
  return out;
}

/// column -> residue index of each row (SIZE_MAX on gap columns).
std::vector<std::vector<std::size_t>> residue_maps(const Alignment& aln) {
  std::vector<std::vector<std::size_t>> maps(aln.num_rows());
  for (std::size_t r = 0; r < aln.num_rows(); ++r) {
    maps[r].assign(aln.num_cols(), static_cast<std::size_t>(-1));
    std::size_t next = 0;
    for (std::size_t c = 0; c < aln.num_cols(); ++c)
      if (!aln.is_gap(r, c)) maps[r][c] = next++;
  }
  return maps;
}

/// Aligns two group alignments by the maximum-expected-accuracy objective:
/// the column-pair score is the sum of posteriors between the residues the
/// columns carry, and gap moves are free.
std::vector<EditOp> mea_merge_path(const Alignment& a, const Alignment& b,
                                   std::span<const std::size_t> rows_a,
                                   std::span<const std::size_t> rows_b,
                                   const PosteriorTable& post) {
  const std::size_t m = a.num_cols();
  const std::size_t n = b.num_cols();
  const auto maps_a = residue_maps(a);
  const auto maps_b = residue_maps(b);

  // Residue index -> column of its group alignment.
  auto col_of = [](const std::vector<std::size_t>& map, std::size_t cols) {
    std::vector<std::uint32_t> inv;
    inv.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c)
      if (map[c] != static_cast<std::size_t>(-1))
        inv.push_back(static_cast<std::uint32_t>(c));
    return inv;
  };

  util::Matrix<float> score(m, n, 0.0F);
  for (std::size_t ra = 0; ra < rows_a.size(); ++ra) {
    const std::vector<std::uint32_t> ca = col_of(maps_a[ra], m);
    for (std::size_t rb = 0; rb < rows_b.size(); ++rb) {
      const std::vector<std::uint32_t> cb = col_of(maps_b[rb], n);
      const SparsePosterior& p = post.at(rows_a[ra], rows_b[rb]);
      for (std::size_t i = 0; i < ca.size(); ++i)
        for (const auto& e : p.row(i)) score(ca[i], cb[e.col]) += e.prob;
    }
  }

  // Max-sum DP with free gaps (the MEA objective).
  util::Matrix<float> dp(m + 1, n + 1, 0.0F);
  util::Matrix<std::uint8_t> from(m + 1, n + 1, 0);  // 0=diag 1=up 2=left
  for (std::size_t i = 1; i <= m; ++i)
    from(i, 0) = 1;
  for (std::size_t j = 1; j <= n; ++j)
    from(0, j) = 2;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      float best = dp(i - 1, j - 1) + score(i - 1, j - 1);
      std::uint8_t dir = 0;
      if (dp(i - 1, j) > best) {
        best = dp(i - 1, j);
        dir = 1;
      }
      if (dp(i, j - 1) > best) {
        best = dp(i, j - 1);
        dir = 2;
      }
      dp(i, j) = best;
      from(i, j) = dir;
    }
  }

  std::vector<EditOp> ops;
  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    switch (from(i, j)) {
      case 0:
        ops.push_back(EditOp::Match);
        --i;
        --j;
        break;
      case 1:
        ops.push_back(EditOp::GapInB);
        --i;
        break;
      default:
        ops.push_back(EditOp::GapInA);
        --j;
        break;
    }
  }
  std::reverse(ops.begin(), ops.end());
  return ops;
}

}  // namespace

ProbConsAligner::ProbConsAligner(ProbConsOptions options,
                                 const bio::SubstitutionMatrix& matrix)
    : options_(std::move(options)), matrix_(&matrix) {
  if (options_.max_sequences < 2)
    throw std::invalid_argument("ProbConsAligner: max_sequences must be >= 2");
  if (options_.consistency_reps < 0 || options_.refine_passes < 0)
    throw std::invalid_argument("ProbConsAligner: negative repetition count");
}

Alignment ProbConsAligner::align(std::span<const Sequence> seqs) const {
  if (seqs.empty())
    throw std::invalid_argument("ProbConsAligner: no sequences");
  if (seqs.size() > options_.max_sequences)
    throw std::invalid_argument(
        "ProbConsAligner: input exceeds max_sequences (" +
        std::to_string(options_.max_sequences) + ")");
  for (const Sequence& s : seqs)
    if (s.empty())
      throw std::invalid_argument("ProbConsAligner: empty sequence " + s.id());
  if (seqs.size() == 1) return Alignment::from_sequence(seqs[0]);

  const std::size_t n = seqs.size();
  const PairHmm hmm(*matrix_, options_.hmm);

  // Stage 1: pairwise posteriors (and expected-accuracy distances) — the
  // heavy O(N^2 L^2) distance pass, threaded through the shared all-pairs
  // driver. Every pair writes only its own (preallocated) posterior slots
  // and distance cell, so the result is bit-identical for any thread
  // count.
  PosteriorTable post(n);
  const util::SymmetricMatrix<double> dist = align::pairwise_distance_matrix(
      n, options_.threads, [&](std::size_t y, std::size_t x) {  // x < y
        SparsePosterior p = hmm.posterior(seqs[x], seqs[y]);
        const MeaResult mea = PairHmm::mea_align(p);
        post.at(y, x) = p.transposed();
        post.at(x, y) = std::move(p);
        return 1.0 - mea.expected_accuracy;
      });

  // Stage 2: guide tree from expected-accuracy distances.
  const GuideTree tree = GuideTree::upgma(dist);

  // Stage 3: consistency transform.
  for (int rep = 0; rep < options_.consistency_reps; ++rep)
    post = relax(post, options_.hmm.posterior_cutoff);

  // Stage 4: progressive MEA alignment along the tree. Merges of
  // independent subtrees run concurrently (the posterior table is read-only
  // by now).
  TreeAlignment merged = merge_along_tree(
      seqs, tree, options_.threads,
      [&](const Alignment& left, std::span<const std::size_t> left_rows,
          const Alignment& right, std::span<const std::size_t> right_rows) {
        return mea_merge_path(left, right, left_rows, right_rows, post);
      });
  Alignment aln = merged.in_input_order();

  // Stage 5: random-bipartition iterative refinement (accepted
  // unconditionally, as in ProbCons). ProbCons stacks the two re-aligned
  // halves, so the row order the next pass draws over is the tree's leaf
  // order at first, then each pass's side A followed by its side B; `order`
  // tracks it as input indices while `aln` stays in input order.
  std::vector<std::size_t> order = std::move(merged.rows);
  util::Rng rng(options_.refine_seed);
  for (int pass = 0; pass < options_.refine_passes; ++pass) {
    std::vector<std::size_t> ga;
    std::vector<std::size_t> gb;
    for (const std::size_t s : order) (rng.chance(0.5) ? ga : gb).push_back(s);
    if (ga.empty() || gb.empty()) continue;

    const RowSplit split = split_rows(aln, ga, gb);
    aln = rejoin_rows(split, mea_merge_path(split.a, split.b, ga, gb, post));
    order = std::move(ga);
    order.insert(order.end(), gb.begin(), gb.end());
  }

  aln.validate();
  return aln;
}

}  // namespace salign::msa
