#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>

#include "align/engine/batch.hpp"
#include "align/engine/engine.hpp"
#include "align/pairwise.hpp"
#include "bio/sequence.hpp"
#include "util/matrix.hpp"

namespace salign::align {

/// Fraction of alignment match columns whose residues are identical,
/// over the number of match columns (gap columns excluded). Returns 0 for
/// paths with no match column.
[[nodiscard]] double fractional_identity(std::span<const std::uint8_t> a,
                                         std::span<const std::uint8_t> b,
                                         std::span<const EditOp> ops);

/// Saturation cap shared by every guide-tree distance source (Kimura and
/// score-normalized), so mixed-source distances live on comparable scales.
inline constexpr double kMaxGuideTreeDistance = 5.0;

/// Kimura's (1983) correction of fractional identity into an evolutionary
/// distance: D = 1 - identity, d = -ln(1 - D - D^2/5). CLUSTALW uses this
/// transform for its guide-tree distances; saturates (and is clamped to
/// kMaxGuideTreeDistance) once the log argument reaches
/// exp(-kMaxGuideTreeDistance), i.e. identity below ~15% (the argument's
/// root sits at D ~ 0.854). The clamp is a saturation, not a cliff: values
/// approach the cap continuously from below (pinned in
/// tests/align_traceback_test.cpp).
[[nodiscard]] double kimura_distance(double fractional_identity);

// ---------------------------------------------------------------------------
// Batched distance-matrix drivers
//
// Every O(N^2) guide-tree distance pass in the library routes through these
// so that (a) the pair enumeration, threading, and determinism rules live in
// one place, and (b) score-only passes reach the striped integer engine
// (engine::ScoreBatch) with one query profile per row instead of per pair.
// ---------------------------------------------------------------------------

/// Maps a linear index onto the strict-lower-triangle pair enumeration
/// (1,0), (2,0), (2,1), (3,0), ... — i ascending, then j < i ascending: the
/// exact order of the historical nested consumer loops, and the order in
/// which alignment_distance_matrix invokes its visitor.
[[nodiscard]] std::pair<std::size_t, std::size_t> pair_from_index(
    std::size_t p);

/// Deterministic threaded all-pairs driver: fills d(i, j) = fn(i, j) for
/// every j < i (diagonal stays 0) via util::parallel_for over the linear
/// pair index. `fn` must be thread-safe and independent per pair — it may
/// write per-pair side state (e.g. a preallocated posterior slot), but
/// nothing shared across pairs; each pair then has exactly one writer and
/// the result is bit-identical for every thread count.
[[nodiscard]] util::SymmetricMatrix<double> pairwise_distance_matrix(
    std::size_t n, unsigned threads,
    const std::function<double(std::size_t, std::size_t)>& fn);

/// Per-pair alignments handed to an alignment_distance_matrix visitor.
struct PairAlignments {
  PairwiseAlignment global;
  LocalAlignment local;  ///< filled iff PairDistanceOptions::with_local
};

/// Where the pairs of one alignment_distance_matrix call were computed.
/// Every route is bit-identical to the reference kernels; the split is the
/// perf story of the pass (CLI stats surface it).
struct PairDistanceStats {
  std::size_t pairs = 0;          ///< total pairs aligned
  std::size_t batched_int8 = 0;   ///< inter-pair int8 lanes (engine::PairBatch)
  std::size_t batch_retries = 0;  ///< batched lanes that saturated a rail
                                  ///< and were re-run through the ladder
  engine::LadderStats ladder;     ///< per-pair tier-ladder kernel runs

  PairDistanceStats& operator+=(const PairDistanceStats& o);
};

struct PairDistanceOptions {
  /// Band half-width of the pairwise DP (0 = full global alignment).
  std::size_t band = 0;
  /// util::parallel_for width of the pair loop (1 = serial). Results are
  /// bit-identical for any value.
  unsigned threads = 1;
  /// Also compute one local (Smith–Waterman) alignment per pair — the
  /// T-Coffee primary library wants both.
  bool with_local = false;
  /// When non-null, receives the pass's per-tier pair counts.
  PairDistanceStats* stats = nullptr;
};

/// Serial per-pair callback of alignment_distance_matrix, invoked in
/// pair_from_index order (i ascending, then j < i) AFTER the pair's
/// alignments were computed — possibly on another thread, but the visitor
/// itself always runs on the calling thread in deterministic order, so it
/// may mutate shared state freely (e.g. build a consistency library).
using PairVisitor = std::function<void(std::size_t i, std::size_t j,
                                       const PairAlignments& pair)>;

/// All-pairs Kimura guide-tree distances from full global (or banded)
/// pairwise alignments — the per-pair arithmetic of the historical consumer
/// loops (ClustalW stage 1, T-Coffee's library pass, `salign tree --dist
/// kimura`), unchanged, threaded over pairs. Output and visitor order are
/// bit-identical to the serial nested loops for every thread count. When a
/// visitor is given, pairs are processed in bounded blocks so per-pair
/// alignments are buffered only briefly.
///
/// The input picks each pair's route: with band == 0 and integral
/// penalties, pairs inside the int8 boundary rail run as inter-pair int8
/// lanes (engine::PairBatch) and a lane that saturates is re-run through
/// the per-pair ladder; every other pair runs engine::AlignBatch's
/// int8 -> int16 -> float ladder. Banded passes keep the float banded
/// kernel, whose band defines the result.
[[nodiscard]] util::SymmetricMatrix<double> alignment_distance_matrix(
    std::span<const bio::Sequence> seqs, const bio::SubstitutionMatrix& matrix,
    bio::GapPenalties gaps, const PairDistanceOptions& options = {},
    const PairVisitor& visit = {});

struct ScoreDistanceOptions {
  /// util::parallel_for width over matrix rows (1 = serial; deterministic
  /// for any value).
  unsigned threads = 1;
};

/// Upper clamp of score_distance_matrix distances — the shared guide-tree
/// saturation cap.
inline constexpr double kMaxScoreDistance = kMaxGuideTreeDistance;

/// All-pairs *score-only* distances through engine::ScoreBatch: one striped
/// integer query profile per row, scored against every earlier sequence —
/// no traceback anywhere, which is what makes this the fast guide-tree
/// path (the striped int8/int16 kernels are 3-4x the float kernel, and the
/// profile amortizes across the row).
///
///   d(i, j) = clamp(1 - S(i,j) / min(S(i,i), S(j,j)), 0, kMaxScoreDistance)
///
/// where S is the global alignment score. Self-scores <= 0 (empty or
/// pathological sequences) make the pair maximally distant. Deterministic
/// for every thread count.
[[nodiscard]] util::SymmetricMatrix<double> score_distance_matrix(
    std::span<const bio::Sequence> seqs, const bio::SubstitutionMatrix& matrix,
    bio::GapPenalties gaps, const ScoreDistanceOptions& options = {});

}  // namespace salign::align
