#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "align/engine/engine.hpp"

namespace salign::align::engine {

/// Kernel passes of one ScoreBatch or AlignBatch promotion ladder.
///
/// The ladder is the only way into the engine's tiers, and the input alone
/// picks where a pair lands: striped int8 when the (matrix, gaps) pair is
/// integral (open >= extend >= 1) and the counterpart is inside int8's
/// boundary rail (~100 residues at BLOSUM62 defaults), int16 past that,
/// float for non-integral scores or penalties. A tier whose run touches a
/// saturation rail retries one tier wider — int8 -> int16 -> float — so
/// every result is bit-identical to engine::reference::global_align.
struct LadderStats {
  std::size_t int8_runs = 0;   ///< int8 kernel passes (incl. saturated)
  std::size_t int16_runs = 0;  ///< int16 kernel passes (incl. saturated)
  std::size_t float_runs = 0;  ///< float kernel passes
  std::size_t promotions = 0;  ///< runs that saturated and retried wider
  /// AlignBatch only: promotions raised during the traceback (a recomputed
  /// block found a floor-clamped E/F cell) rather than by the forward
  /// pass's H rails.
  std::size_t trace_promotions = 0;

  LadderStats& operator+=(const LadderStats& o);
};

/// One query sequence profiled once (striped int8 + int16 tables plus the
/// float fallback), scored against many counterparts — the unit of work of
/// a distance-matrix row. Building the profile is O(alphabet * m); each
/// score() is then a pure kernel pass, so the profile cost amortizes over
/// the whole row. A one-off score is ScoreBatch(a, ...).score(b).
///
/// Each call runs the promotion ladder (see LadderStats); scores are
/// bit-identical to engine::reference::global_align on every input.
/// Profiles and DP scratch are built lazily per tier and reused across
/// calls, which also makes score() NOT thread-safe — use one ScoreBatch per
/// thread (the align/distance.cpp drivers do).
class ScoreBatch {
 public:
  ScoreBatch(std::span<const std::uint8_t> query,
             const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps);
  ~ScoreBatch();
  ScoreBatch(ScoreBatch&&) noexcept;
  ScoreBatch& operator=(ScoreBatch&&) noexcept;
  ScoreBatch(const ScoreBatch&) = delete;
  ScoreBatch& operator=(const ScoreBatch&) = delete;

  /// Global-alignment score of the query vs `other`, bit-identical to the
  /// reference kernels. Not thread-safe (mutates the reusable workspace).
  [[nodiscard]] float score(std::span<const std::uint8_t> other);

  [[nodiscard]] std::size_t query_length() const;
  [[nodiscard]] const LadderStats& stats() const;

  /// Bytes currently held: striped profiles, striped DP columns, and the
  /// float tier's most recent per-call workspace. Linear in the query
  /// length and the longest counterpart — never O(m * n). Feeds the
  /// workspace accounting that the linear-memory tests pin.
  [[nodiscard]] std::size_t workspace_bytes() const;

  struct Impl;  // defined in batch.cpp (tier profiles + ladder state)

 private:
  std::unique_ptr<Impl> impl_;
};

/// One query sequence profiled once, FULL-aligned (score + traceback)
/// against many counterparts — the unit of work of an identity/Kimura
/// distance-matrix row. The full-alignment sibling of ScoreBatch: each
/// align() runs the striped integer tiers with the column-checkpointed
/// integer traceback (striped_align) through the same promotion ladder,
/// falling back to the float engine's checkpointed kernel. No O(m·n)
/// traceback matrix is materialized on any tier. A one-off alignment is
/// AlignBatch(a, ...).align(b).
///
/// Results (score, ops, tie-breaks) are bit-identical to
/// engine::reference::global_align on every input. The alignment tiers
/// promote on a stricter rail than the score tiers — the traceback reads
/// E/F cell values directly, so a floor-clamped E/F promotes even when the
/// score would have been exact (see striped.hpp); trace_promotions counts
/// those late promotions separately. Like ScoreBatch, align() is NOT
/// thread-safe — one AlignBatch per thread.
class AlignBatch {
 public:
  AlignBatch(std::span<const std::uint8_t> query,
             const bio::SubstitutionMatrix& matrix, bio::GapPenalties gaps);
  ~AlignBatch();
  AlignBatch(AlignBatch&&) noexcept;
  AlignBatch& operator=(AlignBatch&&) noexcept;
  AlignBatch(const AlignBatch&) = delete;
  AlignBatch& operator=(const AlignBatch&) = delete;

  /// Full global alignment of the query vs `other`, bit-identical to the
  /// reference kernels. Not thread-safe (mutates the reusable workspace).
  [[nodiscard]] PairwiseAlignment align(std::span<const std::uint8_t> other);

  [[nodiscard]] std::size_t query_length() const;
  [[nodiscard]] const LadderStats& stats() const;

  /// Bytes currently held: striped profiles, DP columns, checkpoint and
  /// block stores. O((m + n) * sqrt(n)) — never O(m * n).
  [[nodiscard]] std::size_t workspace_bytes() const;

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace salign::align::engine
