#include "align/distance.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "align/engine/batch.hpp"
#include "align/engine/pair_batch.hpp"
#include "util/thread_pool.hpp"

namespace salign::align {

double fractional_identity(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b,
                           std::span<const EditOp> ops) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t matches = 0;
  std::size_t cols = 0;
  for (EditOp op : ops) {
    switch (op) {
      case EditOp::Match:
        ++cols;
        if (a[i] == b[j]) ++matches;
        ++i;
        ++j;
        break;
      case EditOp::GapInA: ++j; break;
      case EditOp::GapInB: ++i; break;
    }
  }
  return cols == 0 ? 0.0
                   : static_cast<double>(matches) / static_cast<double>(cols);
}

double kimura_distance(double fractional_identity) {
  const double d = std::clamp(1.0 - fractional_identity, 0.0, 1.0);
  const double arg = 1.0 - d - d * d / 5.0;
  // Saturation guard: identities below ~15% drive the log argument to 0
  // (its root is at D ~ 0.854); the cap keeps every guide-tree distance
  // source on one bounded scale.
  if (arg <= std::exp(-kMaxGuideTreeDistance)) return kMaxGuideTreeDistance;
  return -std::log(arg);
}

// ---------------------------------------------------------------------------
// Batched drivers
// ---------------------------------------------------------------------------

std::pair<std::size_t, std::size_t> pair_from_index(std::size_t p) {
  // Invert the triangular number: the float estimate is correct to +-1,
  // fixed up exactly by the adjustment loops.
  auto i = static_cast<std::size_t>(
      (std::sqrt(8.0 * static_cast<double>(p) + 1.0) + 1.0) / 2.0);
  while (i >= 1 && i * (i - 1) / 2 > p) --i;
  while ((i + 1) * i / 2 <= p) ++i;
  return {i, p - i * (i - 1) / 2};
}

util::SymmetricMatrix<double> pairwise_distance_matrix(
    std::size_t n, unsigned threads,
    const std::function<double(std::size_t, std::size_t)>& fn) {
  util::SymmetricMatrix<double> d(n, 0.0);
  const std::size_t pairs = n == 0 ? 0 : n * (n - 1) / 2;
  util::parallel_for(
      pairs,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          const auto [i, j] = pair_from_index(p);
          d(i, j) = fn(i, j);
        }
      },
      threads);
  return d;
}

PairDistanceStats& PairDistanceStats::operator+=(const PairDistanceStats& o) {
  pairs += o.pairs;
  batched_int8 += o.batched_int8;
  batch_retries += o.batch_retries;
  ladder += o.ladder;
  return *this;
}

namespace {

double pair_kimura(std::span<const bio::Sequence> seqs, std::size_t i,
                   std::size_t j, const PairAlignments& pair) {
  return kimura_distance(fractional_identity(
      seqs[i].codes(), seqs[j].codes(), pair.global.ops));
}

/// One parallel unit of the blocked alignment pass. Either a PairBatch
/// group (up to one int8 lane set of short pairs, length-sorted by the
/// planner) or a run of same-query pairs sharing one AlignBatch row
/// profile. Each task writes only its own block slots, so the pass is
/// bit-identical for every thread count.
struct PairTask {
  bool batched = false;
  std::size_t row = 0;                 ///< query index (row tasks)
  std::vector<std::size_t> slots;      ///< block-local pair indices
};

/// Longest same-query run one row task may hold. A row of the pair
/// triangle can span a whole 256-pair block (any i >= 256), and one task
/// per row would serialize exactly the big-N workloads the pass targets;
/// capping the run keeps >= kBlock/kMaxRowRun parallel tasks per block
/// while still amortizing one AlignBatch profile across 16 alignments.
constexpr std::size_t kMaxRowRun = 16;

/// Plans one block of pairs into tasks: short pairs go to inter-pair int8
/// groups (sorted by longest member so groups are length-homogeneous and
/// the padded overhang stays small), the rest into per-row ladder runs of
/// at most kMaxRowRun pairs. Pure function of the block's pair set —
/// independent of thread count.
std::vector<PairTask> plan_block(std::span<const bio::Sequence> seqs,
                                 std::size_t base, std::size_t count,
                                 std::size_t batch_cap,
                                 std::size_t batch_lanes) {
  std::vector<std::size_t> batchable;
  std::vector<PairTask> tasks;
  for (std::size_t p = 0; p < count; ++p) {
    const auto [i, j] = pair_from_index(base + p);
    const std::size_t la = seqs[i].size();
    const std::size_t lb = seqs[j].size();
    if (la > 0 && lb > 0 && std::max(la, lb) <= batch_cap) {
      batchable.push_back(p);
      continue;
    }
    if (tasks.empty() || tasks.back().batched || tasks.back().row != i ||
        tasks.back().slots.size() >= kMaxRowRun) {
      tasks.push_back({.batched = false, .row = i, .slots = {}});
    }
    tasks.back().slots.push_back(p);
  }
  std::sort(batchable.begin(), batchable.end(),
            [&](std::size_t pa, std::size_t pb) {
              const auto [ia, ja] = pair_from_index(base + pa);
              const auto [ib, jb] = pair_from_index(base + pb);
              const std::size_t lena =
                  std::max(seqs[ia].size(), seqs[ja].size());
              const std::size_t lenb =
                  std::max(seqs[ib].size(), seqs[jb].size());
              return lena != lenb ? lena > lenb : pa < pb;
            });
  for (std::size_t at = 0; at < batchable.size(); at += batch_lanes) {
    PairTask t;
    t.batched = true;
    const std::size_t g = std::min(batch_lanes, batchable.size() - at);
    t.slots.assign(batchable.begin() + static_cast<std::ptrdiff_t>(at),
                   batchable.begin() + static_cast<std::ptrdiff_t>(at + g));
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// Runs one planned task, filling its block slots (and per-task stats).
/// `pb` is the worker's reusable inter-pair kernel (column store and score
/// table amortize across the worker's batched tasks); non-null whenever
/// the task is batched.
void run_pair_task(const PairTask& task, std::span<const bio::Sequence> seqs,
                   const bio::SubstitutionMatrix& matrix,
                   bio::GapPenalties gaps, const PairDistanceOptions& options,
                   std::size_t base, engine::PairBatch* pb,
                   std::vector<PairAlignments>& block,
                   PairDistanceStats& stats) {
  stats.pairs += task.slots.size();
  if (task.batched) {
    std::vector<engine::PairBatch::Pair> group(task.slots.size());
    std::vector<PairwiseAlignment> outs(task.slots.size());
    const std::unique_ptr<bool[]> ok(new bool[task.slots.size()]());
    for (std::size_t g = 0; g < task.slots.size(); ++g) {
      const auto [i, j] = pair_from_index(base + task.slots[g]);
      group[g] = {seqs[i].codes(), seqs[j].codes()};
    }
    pb->align(group, outs.data(), ok.get());
    for (std::size_t g = 0; g < task.slots.size(); ++g) {
      const std::size_t p = task.slots[g];
      if (ok[g]) {
        ++stats.batched_int8;
        block[p].global = std::move(outs[g]);
      } else {
        // The lane saturated an int8 rail: retake the pair through the
        // per-pair promotion ladder.
        ++stats.batch_retries;
        engine::AlignBatch batch(group[g].a, matrix, gaps);
        block[p].global = batch.align(group[g].b);
        stats.ladder += batch.stats();
      }
      if (options.with_local) {
        const auto [i, j] = pair_from_index(base + p);
        block[p].local = engine::local_align(seqs[i].codes(), seqs[j].codes(),
                                             matrix, gaps);
      }
    }
    return;
  }

  // Row task: one ladder profile for the shared query, full alignments
  // against each counterpart (banded passes keep the float banded kernel —
  // the band changes the result set, and the reference semantics are the
  // banded kernel's).
  const std::size_t i = task.row;
  std::unique_ptr<engine::AlignBatch> batch;
  if (options.band == 0)
    batch = std::make_unique<engine::AlignBatch>(seqs[i].codes(), matrix,
                                                 gaps);
  for (const std::size_t p : task.slots) {
    const auto [pi, j] = pair_from_index(base + p);
    if (batch)
      block[p].global = batch->align(seqs[j].codes());
    else
      block[p].global =
          engine::banded_global_align(seqs[pi].codes(), seqs[j].codes(),
                                      matrix, gaps, options.band);
    if (options.with_local)
      block[p].local = engine::local_align(seqs[pi].codes(), seqs[j].codes(),
                                           matrix, gaps);
  }
  if (batch) stats.ladder += batch->stats();
}

}  // namespace

util::SymmetricMatrix<double> alignment_distance_matrix(
    std::span<const bio::Sequence> seqs, const bio::SubstitutionMatrix& matrix,
    bio::GapPenalties gaps, const PairDistanceOptions& options,
    const PairVisitor& visit) {
  const std::size_t n = seqs.size();

  // The whole pass — visitor or not — runs in bounded blocks: pair
  // alignments compute in parallel over planned tasks (inter-pair int8
  // groups for the short-pair regime, per-row tier-ladder runs otherwise),
  // then the serial walk derives the Kimura distances and feeds the visitor
  // in exact pair order. Identical output for every thread count.
  constexpr std::size_t kBlock = 256;
  std::size_t batch_cap = 0;
  std::size_t batch_lanes = 1;
  if (options.band == 0) {
    const engine::PairBatch probe(matrix, gaps);
    batch_cap = probe.max_len();
    batch_lanes = probe.lanes();
  }

  util::SymmetricMatrix<double> d(n, 0.0);
  PairDistanceStats total;
  const std::size_t pairs = n == 0 ? 0 : n * (n - 1) / 2;
  std::vector<PairAlignments> block(std::min<std::size_t>(kBlock, pairs));
  for (std::size_t base = 0; base < pairs; base += kBlock) {
    const std::size_t count = std::min(kBlock, pairs - base);
    const std::vector<PairTask> tasks =
        plan_block(seqs, base, count, batch_cap, batch_lanes);
    std::vector<PairDistanceStats> task_stats(tasks.size());
    util::parallel_for(
        tasks.size(),
        [&](std::size_t begin, std::size_t end) {
          // One inter-pair kernel per worker chunk: its score table and
          // column store amortize across the chunk's batched groups.
          std::unique_ptr<engine::PairBatch> pb;
          for (std::size_t t = begin; t < end; ++t) {
            if (tasks[t].batched && !pb)
              pb = std::make_unique<engine::PairBatch>(matrix, gaps);
            run_pair_task(tasks[t], seqs, matrix, gaps, options, base,
                          pb.get(), block, task_stats[t]);
          }
        },
        options.threads);
    for (const auto& ts : task_stats) total += ts;
    for (std::size_t p = 0; p < count; ++p) {
      const auto [i, j] = pair_from_index(base + p);
      d(i, j) = pair_kimura(seqs, i, j, block[p]);
      if (visit) visit(i, j, block[p]);
    }
  }
  if (options.stats != nullptr) *options.stats = total;
  return d;
}

util::SymmetricMatrix<double> score_distance_matrix(
    std::span<const bio::Sequence> seqs, const bio::SubstitutionMatrix& matrix,
    bio::GapPenalties gaps, const ScoreDistanceOptions& options) {
  const std::size_t n = seqs.size();
  util::SymmetricMatrix<double> d(n, 0.0);
  if (n == 0) return d;

  // Phase 1: self-scores (the normalization scale), one batch per row.
  std::vector<float> self(n, 0.0F);
  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          engine::ScoreBatch batch(seqs[i].codes(), matrix, gaps);
          self[i] = batch.score(seqs[i].codes());
        }
      },
      options.threads);

  // Phase 2: one striped profile per row i, scored against every j < i.
  // Row i costs O(i) pairs, so contiguous row chunks would hand the last
  // worker ~half the triangle; interleaving cheap and expensive rows
  // (r -> r/2 from the bottom, n-1-r/2 from the top) balances every chunk
  // while each (i, j) cell still has exactly one writer.
  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const std::size_t i = (r % 2 == 0) ? r / 2 : n - 1 - r / 2;
          if (i == 0) continue;
          engine::ScoreBatch batch(seqs[i].codes(), matrix, gaps);
          for (std::size_t j = 0; j < i; ++j) {
            const double denom = std::min(self[i], self[j]);
            if (denom <= 0.0) {
              d(i, j) = kMaxScoreDistance;
              continue;
            }
            const double ratio =
                static_cast<double>(batch.score(seqs[j].codes())) / denom;
            d(i, j) = std::clamp(1.0 - ratio, 0.0, kMaxScoreDistance);
          }
        }
      },
      options.threads);
  return d;
}

}  // namespace salign::align
