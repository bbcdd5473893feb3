#include "align/engine/batch.hpp"

#include <memory>
#include <vector>

#include "align/engine/gotoh.hpp"
#include "align/engine/simd_int.hpp"
#include "align/engine/striped.hpp"

namespace salign::align::engine {

LadderStats& LadderStats::operator+=(const LadderStats& o) {
  int8_runs += o.int8_runs;
  int16_runs += o.int16_runs;
  float_runs += o.float_runs;
  promotions += o.promotions;
  trace_promotions += o.trace_promotions;
  return *this;
}

namespace detail {

/// The one promotion ladder behind ScoreBatch and AlignBatch: the query's
/// int8 profile built up front, the int16 profile on first need, and one
/// reusable DP workspace per integer tier (`Workspace` is the score-only or
/// the traceback kind). Kept out of batch.hpp so the striped kernel types
/// stay internal to the engine.
template <template <typename> class Workspace>
struct Ladder {
  std::vector<std::uint8_t> query;
  const bio::SubstitutionMatrix* matrix;
  bio::GapPenalties gaps;
  IntGate gate;
  LadderStats stats;

  StripedProfile<VecI8> p8;
  StripedProfile<VecI16> p16;
  bool p16_built = false;
  Workspace<VecI8> ws8;
  Workspace<VecI16> ws16;

  Ladder(std::span<const std::uint8_t> q, const bio::SubstitutionMatrix& m,
         bio::GapPenalties g)
      : query(q.begin(), q.end()),
        matrix(&m),
        gaps(g),
        gate(scan_int_gate(m, g)),
        p8(query, m, gate) {}

  /// Runs `pass(profile, workspace)` on every integer tier viable for a
  /// counterpart of `other_len` residues, narrowest first, until one
  /// returns true (exact). False means the caller runs the float tier,
  /// whose run is already counted.
  template <typename Pass>
  bool run_integer_tiers(std::size_t other_len, Pass&& pass) {
    if (p8.viable() && p8.viable_for(other_len)) {
      ++stats.int8_runs;
      if (pass(p8, ws8)) return true;
      ++stats.promotions;
    }
    if (!p16_built) {
      p16 = StripedProfile<VecI16>(query, *matrix, gate);
      p16_built = true;
    }
    if (p16.viable() && p16.viable_for(other_len)) {
      ++stats.int16_runs;
      if (pass(p16, ws16)) return true;
      ++stats.promotions;
    }
    ++stats.float_runs;
    return false;
  }

  [[nodiscard]] std::size_t bytes() const {
    return p8.bytes() + p16.bytes() + ws8.bytes() + ws16.bytes() +
           query.capacity();
  }
};

}  // namespace detail

struct ScoreBatch::Impl : detail::Ladder<detail::StripedWorkspace> {
  using Ladder::Ladder;
  std::size_t float_ws = 0;  ///< the float tier's last per-call workspace
};

struct AlignBatch::Impl : detail::Ladder<detail::StripedAlignWorkspace> {
  using Ladder::Ladder;
};

ScoreBatch::ScoreBatch(std::span<const std::uint8_t> query,
                       const bio::SubstitutionMatrix& matrix,
                       bio::GapPenalties gaps)
    : impl_(std::make_unique<Impl>(query, matrix, gaps)) {}

ScoreBatch::~ScoreBatch() = default;
ScoreBatch::ScoreBatch(ScoreBatch&&) noexcept = default;
ScoreBatch& ScoreBatch::operator=(ScoreBatch&&) noexcept = default;

float ScoreBatch::score(std::span<const std::uint8_t> other) {
  Impl& l = *impl_;
  if (l.query.empty() || other.empty())
    return detail::empty_edge_align(l.query.size(), other.size(), l.gaps)
        .score;
  float s = 0.0F;
  if (l.run_integer_tiers(other.size(), [&](const auto& p, auto& ws) {
        return detail::striped_score(p, other, ws, &s);
      }))
    return s;
  return detail::global_score_impl(l.query, other, *l.matrix, l.gaps, 0,
                                   false, &l.float_ws);
}

std::size_t ScoreBatch::query_length() const { return impl_->query.size(); }

const LadderStats& ScoreBatch::stats() const { return impl_->stats; }

std::size_t ScoreBatch::workspace_bytes() const {
  return impl_->bytes() + impl_->float_ws;
}

AlignBatch::AlignBatch(std::span<const std::uint8_t> query,
                       const bio::SubstitutionMatrix& matrix,
                       bio::GapPenalties gaps)
    : impl_(std::make_unique<Impl>(query, matrix, gaps)) {}

AlignBatch::~AlignBatch() = default;
AlignBatch::AlignBatch(AlignBatch&&) noexcept = default;
AlignBatch& AlignBatch::operator=(AlignBatch&&) noexcept = default;

PairwiseAlignment AlignBatch::align(std::span<const std::uint8_t> other) {
  Impl& l = *impl_;
  if (l.query.empty() || other.empty())
    return detail::empty_edge_align(l.query.size(), other.size(), l.gaps);
  PairwiseAlignment out;
  if (l.run_integer_tiers(other.size(), [&](const auto& p, auto& ws) {
        bool trace = false;
        if (detail::striped_align(p, other, ws, &out, &trace)) return true;
        if (trace) ++l.stats.trace_promotions;
        return false;
      }))
    return out;
  return detail::global_align_impl(l.query, other, *l.matrix, l.gaps, 0,
                                   false);
}

std::size_t AlignBatch::query_length() const { return impl_->query.size(); }

const LadderStats& AlignBatch::stats() const { return impl_->stats; }

std::size_t AlignBatch::workspace_bytes() const { return impl_->bytes(); }

}  // namespace salign::align::engine
