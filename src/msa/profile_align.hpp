#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "align/engine/engine.hpp"
#include "align/pairwise.hpp"
#include "msa/alignment.hpp"
#include "msa/profile.hpp"
#include "util/matrix.hpp"

namespace salign::msa {

/// Options for profile-profile alignment.
struct ProfileAlignOptions {
  bio::GapPenalties gaps;
  /// Diagonal band half-width; 0 means full DP. The MAFFT-style aligner
  /// passes FFT-derived bands here.
  std::size_t band = 0;
};

struct ProfileAlignResult {
  float score = 0.0F;
  std::vector<align::EditOp> ops;
};

namespace detail {

/// Fills `out[0..len)` with the dense PSP scores of one A column against B
/// columns [cb_lo, cb_lo + len): sum over the column's nonzero residues of
/// f * svt(code, cb), as contiguous vectorizable sweeps. The single source
/// of this accumulation — PspRowScorer::prepare_row (the scalar DP) and
/// the wavefront kernel's block fill (profile_dp_simd.cpp) both call it,
/// and its exact operation order is part of their bit-identity contract.
inline void psp_fill_row(
    const util::Matrix<float>& svt,
    const std::vector<std::pair<std::uint8_t, float>>& col_a,
    std::size_t cb_lo, std::size_t len, float* out) {
  std::fill_n(out, len, 0.0F);
  for (const auto& [code, f] : col_a) {
    const float* sv_row = &svt(code, cb_lo);
    for (std::size_t c = 0; c < len; ++c) out[c] += f * sv_row[c];
  }
}

/// PSP scorer with a per-row dense buffer: profile_dp announces each DP row
/// as prepare_row(ca, cb_lo, cb_hi), which builds row[cb] = sum over
/// A-column ca's nonzero residues of f * svt(code, cb) for the B columns the
/// row will actually read (the full width, or just the band) with
/// contiguous, vectorizable sweeps; the per-cell call is then a single
/// array read.
struct PspRowScorer {
  const util::Matrix<float>* svt;  // residue-major B column scores
  const std::vector<std::vector<std::pair<std::uint8_t, float>>>* sparse_a;
  mutable std::vector<float> row;

  void prepare_row(std::size_t ca, std::size_t cb_lo,
                   std::size_t cb_hi) const {
    if (cb_lo > cb_hi) return;
    psp_fill_row(*svt, (*sparse_a)[ca], cb_lo, cb_hi - cb_lo + 1,
                 row.data() + cb_lo);
  }
  float operator()(std::size_t, std::size_t cb) const { return row[cb]; }
};

/// Blocked anti-diagonal (wavefront) PSP profile DP over engine::simd
/// vectors (profile_dp_simd.cpp). Materializes dense scorer rows one row
/// block at a time, sweeps each block's anti-diagonals with element-wise
/// vector ops (the occupancy-scaled gap penalties become precomputed gap
/// vectors: forward along A for gaps-in-B, reversed along B for gaps-in-A),
/// and checkpoints every ~sqrt(m)-th row so traceback re-derives decisions
/// from recomputed state values — never an O(m·n) trace. Scores, paths and
/// tie-breaks are bit-identical to the scalar profile_dp below (pinned by
/// tests/msa_parallel_test.cpp). Requires m >= 1 and n >= 1.
[[nodiscard]] ProfileAlignResult profile_dp_wavefront(
    std::size_t m, std::size_t n, const PspRowScorer& scorer,
    std::span<const float> occ_a, std::span<const float> occ_b,
    const ProfileAlignOptions& opts);

/// Invokes scorer.prepare_row(ca, cb_lo, cb_hi) when the scorer provides it
/// (row-major scorers with per-row precomputation); plain callables need
/// nothing. [cb_lo, cb_hi] is the inclusive B-column range the DP row will
/// query; empty ranges are announced as cb_lo > cb_hi.
template <typename Scorer>
inline void scorer_prepare_row(const Scorer& scorer, std::size_t ca,
                               std::size_t cb_lo, std::size_t cb_hi) {
  if constexpr (requires { scorer.prepare_row(ca, cb_lo, cb_hi); })
    scorer.prepare_row(ca, cb_lo, cb_hi);
}

enum ProfileDpState : std::uint8_t { kPdM = 0, kPdX = 1, kPdY = 2 };

struct ProfileDpCell {
  std::uint8_t came_from[3] = {kPdM, kPdM, kPdM};
};

/// One DP row of the three-state occupancy-scaled Gotoh recurrence, with
/// each cell's came_from nibbles stored in `trow`. The float operations and
/// tie-break chains are the historical ones.
template <typename Scorer>
inline void profile_dp_row(std::size_t i, std::size_t lo, std::size_t hi,
                           const Scorer& scorer, std::span<const float> occ_a,
                           std::span<const float> occ_b, float open, float ext,
                           const float* pm, const float* px, const float* py,
                           float* cm, float* cx, float* cy,
                           ProfileDpCell* trow) {
  constexpr float kNegInf = align::kNegInf;
  for (std::size_t j = std::max<std::size_t>(lo, 1); j <= hi; ++j) {
    const float sub = scorer(i - 1, j - 1);
    float best = pm[j - 1];
    std::uint8_t from = kPdM;
    if (px[j - 1] > best) {
      best = px[j - 1];
      from = kPdX;
    }
    if (py[j - 1] > best) {
      best = py[j - 1];
      from = kPdY;
    }
    cm[j] = best > kNegInf / 2 ? best + sub : kNegInf;
    trow[j].came_from[kPdM] = from;

    // Gap in A consuming B's column j-1.
    const float gx_open = open * occ_b[j - 1];
    const float gx_ext = ext * occ_b[j - 1];
    const float open_x = cm[j - 1] - gx_open;
    const float ext_x = cx[j - 1] - gx_ext;
    const float via_y = cy[j - 1] - gx_open;
    std::uint8_t from_x;
    if (ext_x >= open_x && ext_x >= via_y) {
      cx[j] = ext_x;
      from_x = kPdX;
    } else if (open_x >= via_y) {
      cx[j] = open_x;
      from_x = kPdM;
    } else {
      cx[j] = via_y;
      from_x = kPdY;
    }
    trow[j].came_from[kPdX] = from_x;

    // Gap in B consuming A's column i-1.
    const float gy_open = open * occ_a[i - 1];
    const float gy_ext = ext * occ_a[i - 1];
    const float open_y = pm[j] - gy_open;
    const float ext_y = py[j] - gy_ext;
    const float via_x = px[j] - gy_open;
    std::uint8_t from_y;
    if (ext_y >= open_y && ext_y >= via_x) {
      cy[j] = ext_y;
      from_y = kPdY;
    } else if (open_y >= via_x) {
      cy[j] = open_y;
      from_y = kPdM;
    } else {
      cy[j] = via_x;
      from_y = kPdX;
    }
    trow[j].came_from[kPdY] = from_y;
  }
}

/// Generic three-state (Gotoh) profile DP over column indices.
///
/// `scorer(ca, cb)` returns the match score of aligning column ca of A with
/// column cb of B; it is invoked row-major (ca outer, cb inner), so scorers
/// may cache per-row state. Gap penalties are scaled by the occupancy of the
/// column being consumed, so gaps preferentially stack where the other
/// profile is already gappy (standard PSP treatment). Shared by the PSP
/// aligner and the T-Coffee consistency aligner.
///
/// Memory: a full (m+1) x (n+1) traceback matrix of 3-byte cells. Its one
/// production caller, T-Coffee's consistency merge, already holds an
/// m x n float score matrix, so the trace never changes the order of its
/// peak memory; for the PSP scorer this is the retained oracle of
/// profile_dp_wavefront (see align_profiles_reference), which checkpoints.
template <typename Scorer>
ProfileAlignResult profile_dp(std::size_t m, std::size_t n,
                              const Scorer& scorer,
                              std::span<const float> occ_a,
                              std::span<const float> occ_b,
                              const ProfileAlignOptions& opts) {
  constexpr float kNegInf = align::kNegInf;
  const float open = opts.gaps.open;
  const float ext = opts.gaps.extend;

  ProfileAlignResult out;
  if (m == 0 && n == 0) return out;
  if (m == 0) {
    out.ops.assign(n, align::EditOp::GapInA);
    for (std::size_t j = 0; j < n; ++j)
      out.score -= (j == 0 ? open : ext) * occ_b[j];
    return out;
  }
  if (n == 0) {
    out.ops.assign(m, align::EditOp::GapInB);
    for (std::size_t i = 0; i < m; ++i)
      out.score -= (i == 0 ? open : ext) * occ_a[i];
    return out;
  }

  const std::size_t diff = m > n ? m - n : n - m;
  const bool banded = opts.band > 0;
  const std::size_t eff_band =
      banded ? std::max<std::size_t>(opts.band, 1) + diff : n;
  auto j_lo = [&](std::size_t i) -> std::size_t {
    if (!banded) return 0;
    const auto center = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(n) /
        static_cast<double>(m));
    return center > eff_band ? center - eff_band : 0;
  };
  auto j_hi = [&](std::size_t i) -> std::size_t {
    if (!banded) return n;
    const auto center = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(n) /
        static_cast<double>(m));
    return std::min(n, center + eff_band);
  };

  std::vector<float> prev_m(n + 1, kNegInf), prev_x(n + 1, kNegInf),
      prev_y(n + 1, kNegInf);
  std::vector<float> cur_m(n + 1, kNegInf), cur_x(n + 1, kNegInf),
      cur_y(n + 1, kNegInf);

  // Row-0 boundary: a leading gap run in A.
  prev_m[0] = 0.0F;
  {
    float acc = 0.0F;
    for (std::size_t j = 1; j <= j_hi(0); ++j) {
      acc -= (j == 1 ? open : ext) * occ_b[j - 1];
      prev_x[j] = acc;
    }
  }

  util::Matrix<ProfileDpCell> trace(m + 1, n + 1);
  for (std::size_t j = 1; j <= j_hi(0); ++j)
    trace(0, j).came_from[kPdX] = kPdX;

  float y_border = 0.0F;
  for (std::size_t i = 1; i <= m; ++i) {
    const std::size_t lo = j_lo(i);
    const std::size_t hi = j_hi(i);
    if (banded) {
      std::fill(cur_m.begin(), cur_m.end(), kNegInf);
      std::fill(cur_x.begin(), cur_x.end(), kNegInf);
      std::fill(cur_y.begin(), cur_y.end(), kNegInf);
    }
    cur_m[0] = kNegInf;
    cur_x[0] = kNegInf;
    y_border -= (i == 1 ? open : ext) * occ_a[i - 1];
    cur_y[0] = lo == 0 ? y_border : kNegInf;

    if (const std::size_t js = std::max<std::size_t>(lo, 1); js <= hi)
      scorer_prepare_row(scorer, i - 1, js - 1, hi - 1);
    if (lo == 0) trace(i, 0).came_from[kPdY] = kPdY;
    profile_dp_row(i, lo, hi, scorer, occ_a, occ_b, open, ext,
                         prev_m.data(), prev_x.data(), prev_y.data(),
                         cur_m.data(), cur_x.data(), cur_y.data(),
                         &trace(i, 0));
    std::swap(prev_m, cur_m);
    std::swap(prev_x, cur_x);
    std::swap(prev_y, cur_y);
  }

  std::uint8_t state = kPdM;
  float best = prev_m[n];
  if (prev_x[n] > best) {
    best = prev_x[n];
    state = kPdX;
  }
  if (prev_y[n] > best) {
    best = prev_y[n];
    state = kPdY;
  }
  out.score = best;

  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    const std::uint8_t from = trace(i, j).came_from[state];
    switch (state) {
      case kPdM:
        out.ops.push_back(align::EditOp::Match);
        --i;
        --j;
        break;
      case kPdX:
        out.ops.push_back(align::EditOp::GapInA);
        --j;
        break;
      case kPdY:
        out.ops.push_back(align::EditOp::GapInB);
        --i;
        break;
      default: break;
    }
    state = from;
  }
  std::reverse(out.ops.begin(), out.ops.end());
  return out;
}

/// align_profiles on the scalar profile_dp instead of the wavefront kernel:
/// the retained differential oracle (bit-identical scores, paths and
/// tie-breaks).
[[nodiscard]] ProfileAlignResult align_profiles_reference(
    const Profile& a, const Profile& b, const ProfileAlignOptions& opts = {});

}  // namespace detail

/// Aligns two profiles with the PSP objective; the result path is in column
/// space (Match consumes one column of each). Runs the wavefront kernel
/// (detail::profile_dp_wavefront).
[[nodiscard]] ProfileAlignResult align_profiles(
    const Profile& a, const Profile& b, const ProfileAlignOptions& opts = {});

/// Scores an existing column path under the same PSP + scaled-affine-gap
/// objective as align_profiles; used by refinement to accept/reject
/// re-alignments against the incumbent.
[[nodiscard]] float score_profile_path(const Profile& a, const Profile& b,
                                       std::span<const align::EditOp> ops,
                                       const ProfileAlignOptions& opts = {});

/// Merges two alignments into one by a column path over (A columns, B
/// columns). Row order: all A rows, then all B rows.
[[nodiscard]] Alignment merge_alignments(const Alignment& a,
                                         const Alignment& b,
                                         std::span<const align::EditOp> ops);

/// A split of an alignment's rows into two sides, each degapped (its all-gap
/// columns stripped): row x of `a` is row `rows_a[x]` of the source
/// alignment, likewise for `b`. The spans view the caller's index lists,
/// which must outlive the split. Built by split_rows; re-merged along a new
/// column path by rejoin_rows — the split/re-merge step of tree-bipartition
/// refinement, divergent-row polish and ProbCons' random-bipartition pass.
struct RowSplit {
  std::span<const std::size_t> rows_a;
  std::span<const std::size_t> rows_b;
  Alignment a;
  Alignment b;
};

/// Cuts rows `rows_a` and `rows_b` (in the given order) out of `aln` and
/// degaps each side. Together the two lists must cover every row of `aln`
/// exactly once.
[[nodiscard]] RowSplit split_rows(const Alignment& aln,
                                  std::span<const std::size_t> rows_a,
                                  std::span<const std::size_t> rows_b);

/// merge_alignments(split.a, split.b, ops) with every row put back at the
/// position it was cut from. Has no all-gap columns.
[[nodiscard]] Alignment rejoin_rows(const RowSplit& split,
                                    std::span<const align::EditOp> ops);

/// Derives the implied column path of a combined alignment split into two
/// row groups: a column with residues only in group A maps to GapInB, only
/// in B to GapInA, in both to Match. Columns empty in both groups are
/// dropped. Inverse of merge_alignments up to all-gap columns.
[[nodiscard]] std::vector<align::EditOp> implied_path(
    const Alignment& aln, std::span<const std::size_t> group_a,
    std::span<const std::size_t> group_b);

}  // namespace salign::msa
