#include "msa/tcoffee_like.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "align/distance.hpp"
#include "msa/guide_tree.hpp"
#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/progressive.hpp"
#include "util/matrix.hpp"

namespace salign::msa {

namespace {

/// One library edge: residue x of sequence s is supported as homologous to
/// residue `pos` of sequence `seq` with weight `w`.
struct LibEdge {
  std::uint16_t seq;
  std::uint16_t pos;
  float w;
};

/// Adjacency form of the (extended) library: edges[s][x] lists support for
/// residue x of sequence s. Symmetric (each link stored on both endpoints).
using Library = std::vector<std::vector<std::vector<LibEdge>>>;

void add_edge(Library& lib, std::size_t s, std::size_t x, std::size_t t,
              std::size_t y, float w) {
  auto& vec = lib[s][x];
  for (auto& e : vec) {
    if (e.seq == t && e.pos == y) {
      e.w += w;
      return;
    }
  }
  vec.push_back({static_cast<std::uint16_t>(t),
                 static_cast<std::uint16_t>(y), w});
}

void add_pair_alignment(Library& lib, std::size_t i, std::size_t j,
                        std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b,
                        std::span<const align::EditOp> ops,
                        std::size_t a_begin, std::size_t b_begin) {
  const double identity = align::fractional_identity(
      a.subspan(a_begin), b.subspan(b_begin), ops);
  const auto w = static_cast<float>(100.0 * identity);
  if (w <= 0.0F) return;
  std::size_t x = a_begin;
  std::size_t y = b_begin;
  for (align::EditOp op : ops) {
    switch (op) {
      case align::EditOp::Match:
        add_edge(lib, i, x, j, y, w);
        add_edge(lib, j, y, i, x, w);
        ++x;
        ++y;
        break;
      case align::EditOp::GapInA: ++y; break;
      case align::EditOp::GapInB: ++x; break;
    }
  }
}

/// Triplet extension: for every two-edge path s/x -> k/z -> t/y (s != t),
/// support (s/x, t/y) with min of the two edge weights.
///
/// Each residue s/x gets a dense slot table over every residue t/y of the
/// input holding 1 + the index of its (t, y) edge in ext[s][x] (0: none),
/// seeded from the primary edges and cleared once s/x is done, so each
/// insert is O(1) instead of a scan of the edge list. Edges keep their
/// first-insertion order and every weight its summation order.
Library extend_library(const Library& primary) {
  const std::size_t n = primary.size();
  std::vector<std::size_t> first(n + 1, 0);  // residue t/y -> first[t] + y
  for (std::size_t s = 0; s < n; ++s)
    first[s + 1] = first[s] + primary[s].size();
  std::vector<std::uint32_t> slot(first[n], 0);
  const auto slot_of = [&](const LibEdge& e) -> std::uint32_t& {
    return slot[first[e.seq] + e.pos];
  };

  Library ext = primary;  // extension adds to the primary weights
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t x = 0; x < primary[s].size(); ++x) {
      auto& out = ext[s][x];
      for (std::size_t e = 0; e < out.size(); ++e)
        slot_of(out[e]) = static_cast<std::uint32_t>(e + 1);
      for (const LibEdge& k : primary[s][x]) {
        for (const LibEdge& t : primary[k.seq][k.pos]) {
          if (t.seq == s) continue;
          const float w = std::min(k.w, t.w);
          std::uint32_t& at = slot_of(t);
          if (at != 0) {
            out[at - 1].w += w;
          } else {
            out.push_back({t.seq, t.pos, w});
            at = static_cast<std::uint32_t>(out.size());
          }
        }
      }
      for (const LibEdge& e : out) slot_of(e) = 0;
    }
  }
  return ext;
}

/// Per-row maps of a sub-alignment: column -> residue ordinal and
/// residue ordinal -> column.
struct RowIndex {
  std::vector<std::int32_t> col_of_residue;  // ordinal -> column
};

std::vector<RowIndex> index_rows(const Alignment& aln) {
  std::vector<RowIndex> idx(aln.num_rows());
  for (std::size_t r = 0; r < aln.num_rows(); ++r) {
    idx[r].col_of_residue.reserve(aln.num_cols());
    for (std::size_t c = 0; c < aln.num_cols(); ++c)
      if (!aln.is_gap(r, c))
        idx[r].col_of_residue.push_back(static_cast<std::int32_t>(c));
  }
  return idx;
}

}  // namespace

TCoffeeAligner::TCoffeeAligner(TCoffeeOptions options,
                               const bio::SubstitutionMatrix& matrix)
    : options_(options), matrix_(&matrix) {}

Alignment TCoffeeAligner::align(std::span<const bio::Sequence> seqs) const {
  if (seqs.empty()) throw std::invalid_argument("TCoffeeAligner: no sequences");
  if (seqs.size() == 1) return Alignment::from_sequence(seqs[0]);
  if (seqs.size() > options_.max_sequences)
    throw std::invalid_argument(
        "TCoffeeAligner: input exceeds max_sequences (consistency library "
        "is quadratic; raise TCoffeeOptions::max_sequences explicitly)");
  if (seqs.size() > 0xFFFF || [&] {
        for (const auto& s : seqs)
          if (s.size() > 0xFFFF) return true;
        return false;
      }())
    throw std::invalid_argument("TCoffeeAligner: index overflow");

  const std::size_t n = seqs.size();
  const bio::GapPenalties gaps = matrix_->default_gaps();

  // 1. Primary library + pairwise distances for the guide tree, through
  // the batched all-pairs driver: pair alignments compute in parallel, the
  // library is assembled by the serial visitor in deterministic pair order
  // (identical to the historical nested loop).
  Library primary(n);
  for (std::size_t i = 0; i < n; ++i) primary[i].resize(seqs[i].size());
  align::PairDistanceOptions pdo;
  pdo.threads = options_.threads;
  pdo.with_local = options_.add_local_library;
  const util::SymmetricMatrix<double> dist = align::alignment_distance_matrix(
      seqs, *matrix_, gaps, pdo,
      [&](std::size_t i, std::size_t j, const align::PairAlignments& pair) {
        add_pair_alignment(primary, i, j, seqs[i].codes(), seqs[j].codes(),
                           pair.global.ops, 0, 0);
        if (options_.add_local_library && !pair.local.ops.empty())
          add_pair_alignment(primary, i, j, seqs[i].codes(), seqs[j].codes(),
                             pair.local.ops, pair.local.a_begin,
                             pair.local.b_begin);
      });

  // 2. Extension.
  const Library ext = extend_library(primary);

  // 3. Progressive alignment under the consistency objective. Merges of
  // independent subtrees run concurrently (the library is read-only by now).
  const GuideTree tree = GuideTree::neighbor_joining(dist);
  const auto consistency_path = [&](const Alignment& left,
                                    std::span<const std::size_t> ml,
                                    const Alignment& right,
                                    std::span<const std::size_t> mr) {
    // Consistency score matrix between left columns and right columns:
    // every extended-library edge crossing the two groups votes for one
    // (column, column) cell — O(edges), not O(cells * rows^2).
    const std::vector<RowIndex> il = index_rows(left);
    const std::vector<RowIndex> ir = index_rows(right);
    std::vector<std::int32_t> group_of(n, -1);  // -1: elsewhere
    std::vector<std::size_t> row_in_group(n, 0);
    for (std::size_t r = 0; r < ml.size(); ++r) {
      group_of[ml[r]] = 0;
      row_in_group[ml[r]] = r;
    }
    for (std::size_t r = 0; r < mr.size(); ++r) {
      group_of[mr[r]] = 1;
      row_in_group[mr[r]] = r;
    }

    util::Matrix<float> score(left.num_cols(), right.num_cols(), 0.0F);
    for (std::size_t r = 0; r < ml.size(); ++r) {
      const std::size_t s = ml[r];
      for (std::size_t x = 0; x < ext[s].size(); ++x) {
        const std::int32_t ca = il[r].col_of_residue[x];
        for (const LibEdge& e : ext[s][x]) {
          if (group_of[e.seq] != 1) continue;
          const std::size_t rr = row_in_group[e.seq];
          const std::int32_t cb = ir[rr].col_of_residue[e.pos];
          score(static_cast<std::size_t>(ca), static_cast<std::size_t>(cb)) +=
              e.w;
        }
      }
    }
    const float norm =
        1.0F / static_cast<float>(ml.size()) / static_cast<float>(mr.size());

    const Profile pl(left, *matrix_);
    const Profile pr(right, *matrix_);
    std::vector<float> occ_a(left.num_cols());
    std::vector<float> occ_b(right.num_cols());
    for (std::size_t c = 0; c < left.num_cols(); ++c) occ_a[c] = pl.occupancy(c);
    for (std::size_t c = 0; c < right.num_cols(); ++c)
      occ_b[c] = pr.occupancy(c);

    ProfileAlignOptions po;
    po.gaps = bio::GapPenalties{options_.gap_open, options_.gap_extend};
    return detail::profile_dp(
               left.num_cols(), right.num_cols(),
               [&](std::size_t ca, std::size_t cb) {
                 return score(ca, cb) * norm;
               },
               occ_a, occ_b, po)
        .ops;
  };
  Alignment aln =
      merge_along_tree(seqs, tree, options_.threads, consistency_path)
          .in_input_order();
  aln.validate();
  return aln;
}

}  // namespace salign::msa
