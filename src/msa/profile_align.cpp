#include "msa/profile_align.hpp"

#include <limits>
#include <stdexcept>

namespace salign::msa {

namespace {

std::vector<float> occupancies(const Profile& p) {
  std::vector<float> occ(p.num_cols());
  for (std::size_t c = 0; c < p.num_cols(); ++c) occ[c] = p.occupancy(c);
  return occ;
}

/// The PSP profile DP of (a, b): the wavefront kernel, or the scalar
/// profile_dp for align_profiles_reference.
ProfileAlignResult psp_align(const Profile& a, const Profile& b,
                             const ProfileAlignOptions& opts, bool wavefront) {
  const std::vector<float> occ_a = occupancies(a);
  const std::vector<float> occ_b = occupancies(b);

  // PSP evaluated naively is O(|alphabet|^2) per DP cell. Precomputing, for
  // every column of B, the score vector svT[x][cb] = sum_y g_y(cb) S(x, y)
  // and, for every column of A, its nonzero frequencies, drops the cell
  // cost to O(nnz(A column)) — the same factorization MUSCLE uses. svT is
  // laid out residue-major so that, per DP row, the whole score row over cb
  // builds with nnz contiguous saxpy sweeps the compiler can vectorize,
  // instead of a strided gather per cell.
  const bio::SubstitutionMatrix& m = a.matrix();
  const auto alpha = static_cast<std::size_t>(a.alphabet_size());
  const std::size_t nb = b.num_cols();
  util::Matrix<float> svt(alpha, nb, 0.0F);
  for (std::size_t cb = 0; cb < nb; ++cb) {
    for (std::size_t y = 0; y < alpha; ++y) {
      const float gy = b.freq(cb, static_cast<std::uint8_t>(y));
      if (gy == 0.0F) continue;
      for (std::size_t x = 0; x < alpha; ++x)
        svt(x, cb) += gy * m.score(static_cast<std::uint8_t>(x),
                                   static_cast<std::uint8_t>(y));
    }
  }
  std::vector<std::vector<std::pair<std::uint8_t, float>>> sparse_a(
      a.num_cols());
  for (std::size_t ca = 0; ca < a.num_cols(); ++ca)
    for (std::size_t x = 0; x < alpha; ++x) {
      const float fx = a.freq(ca, static_cast<std::uint8_t>(x));
      if (fx != 0.0F)
        sparse_a[ca].emplace_back(static_cast<std::uint8_t>(x), fx);
    }

  // Both DPs materialize dense score rows through the scorer (prepare_row,
  // or the wavefront's block fill via psp_fill_row), so one saxpy sweep per
  // A column serves every cell of that row and the per-cell score is a
  // plain array read. Term order per cell matches the historical per-cell
  // sparse dot exactly (same partial-sum sequence), so scores are
  // bit-identical.
  const detail::PspRowScorer scorer{&svt, &sparse_a,
                                    std::vector<float>(nb, 0.0F)};
  const std::size_t na = a.num_cols();
  // The wavefront kernel needs both sides non-empty; profile_dp's leading
  // gap-run cases cover the empty ones.
  if (wavefront && na != 0 && nb != 0)
    return detail::profile_dp_wavefront(na, nb, scorer, occ_a, occ_b, opts);
  return detail::profile_dp(na, nb, scorer, occ_a, occ_b, opts);
}

}  // namespace

ProfileAlignResult align_profiles(const Profile& a, const Profile& b,
                                  const ProfileAlignOptions& opts) {
  return psp_align(a, b, opts, /*wavefront=*/true);
}

ProfileAlignResult detail::align_profiles_reference(
    const Profile& a, const Profile& b, const ProfileAlignOptions& opts) {
  return psp_align(a, b, opts, /*wavefront=*/false);
}

float score_profile_path(const Profile& a, const Profile& b,
                         std::span<const align::EditOp> ops,
                         const ProfileAlignOptions& opts) {
  using align::EditOp;
  float score = 0.0F;
  std::size_t i = 0;
  std::size_t j = 0;
  EditOp prev = EditOp::Match;
  bool first = true;
  for (EditOp op : ops) {
    switch (op) {
      case EditOp::Match:
        if (i >= a.num_cols() || j >= b.num_cols())
          throw std::invalid_argument("score_profile_path: path overruns");
        score += a.psp(b, i, j);
        ++i;
        ++j;
        break;
      case EditOp::GapInA: {
        if (j >= b.num_cols())
          throw std::invalid_argument("score_profile_path: path overruns B");
        const bool extend = !first && prev == EditOp::GapInA;
        score -= (extend ? opts.gaps.extend : opts.gaps.open) * b.occupancy(j);
        ++j;
        break;
      }
      case EditOp::GapInB: {
        if (i >= a.num_cols())
          throw std::invalid_argument("score_profile_path: path overruns A");
        const bool extend = !first && prev == EditOp::GapInB;
        score -= (extend ? opts.gaps.extend : opts.gaps.open) * a.occupancy(i);
        ++i;
        break;
      }
    }
    prev = op;
    first = false;
  }
  if (i != a.num_cols() || j != b.num_cols())
    throw std::invalid_argument("score_profile_path: path incomplete");
  return score;
}

Alignment merge_alignments(const Alignment& a, const Alignment& b,
                           std::span<const align::EditOp> ops) {
  using align::EditOp;
  if (a.alphabet_kind() != b.alphabet_kind())
    throw std::invalid_argument("merge_alignments: alphabet mismatch");

  std::vector<AlignedRow> rows(a.num_rows() + b.num_rows());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    rows[r].id = a.row(r).id;
    rows[r].cells.reserve(ops.size());
  }
  for (std::size_t r = 0; r < b.num_rows(); ++r) {
    rows[a.num_rows() + r].id = b.row(r).id;
    rows[a.num_rows() + r].cells.reserve(ops.size());
  }

  std::size_t ca = 0;
  std::size_t cb = 0;
  for (EditOp op : ops) {
    const bool use_a = op != EditOp::GapInA;
    const bool use_b = op != EditOp::GapInB;
    if (use_a && ca >= a.num_cols())
      throw std::invalid_argument("merge_alignments: path overruns A");
    if (use_b && cb >= b.num_cols())
      throw std::invalid_argument("merge_alignments: path overruns B");
    for (std::size_t r = 0; r < a.num_rows(); ++r)
      rows[r].cells.push_back(use_a ? a.cell(r, ca) : Alignment::kGap);
    for (std::size_t r = 0; r < b.num_rows(); ++r)
      rows[a.num_rows() + r].cells.push_back(use_b ? b.cell(r, cb)
                                                   : Alignment::kGap);
    if (use_a) ++ca;
    if (use_b) ++cb;
  }
  if (ca != a.num_cols() || cb != b.num_cols())
    throw std::invalid_argument("merge_alignments: path incomplete");
  return Alignment(std::move(rows), a.alphabet_kind());
}

RowSplit split_rows(const Alignment& aln, std::span<const std::size_t> rows_a,
                    std::span<const std::size_t> rows_b) {
  if (rows_a.size() + rows_b.size() != aln.num_rows())
    throw std::invalid_argument("split_rows: rows must partition the alignment");
  RowSplit split{rows_a, rows_b, aln.subset(rows_a), aln.subset(rows_b)};
  split.a.strip_all_gap_columns();
  split.b.strip_all_gap_columns();
  return split;
}

Alignment rejoin_rows(const RowSplit& split,
                      std::span<const align::EditOp> ops) {
  const Alignment merged = merge_alignments(split.a, split.b, ops);
  std::vector<std::size_t> order(merged.num_rows());
  for (std::size_t x = 0; x < split.rows_a.size(); ++x)
    order[split.rows_a[x]] = x;
  for (std::size_t x = 0; x < split.rows_b.size(); ++x)
    order[split.rows_b[x]] = split.rows_a.size() + x;
  return merged.subset(order);
}

std::vector<align::EditOp> implied_path(const Alignment& aln,
                                        std::span<const std::size_t> group_a,
                                        std::span<const std::size_t> group_b) {
  using align::EditOp;
  std::vector<EditOp> ops;
  ops.reserve(aln.num_cols());
  for (std::size_t c = 0; c < aln.num_cols(); ++c) {
    bool in_a = false;
    bool in_b = false;
    for (std::size_t r : group_a)
      if (!aln.is_gap(r, c)) {
        in_a = true;
        break;
      }
    for (std::size_t r : group_b)
      if (!aln.is_gap(r, c)) {
        in_b = true;
        break;
      }
    if (in_a && in_b)
      ops.push_back(EditOp::Match);
    else if (in_a)
      ops.push_back(EditOp::GapInB);
    else if (in_b)
      ops.push_back(EditOp::GapInA);
    // column empty in both groups: dropped
  }
  return ops;
}

}  // namespace salign::msa
