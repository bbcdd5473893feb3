#include "core/sample_align_d.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "bio/content_hash.hpp"
#include "core/partition.hpp"
#include "core/stage/artifacts.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/consensus.hpp"
#include "msa/muscle_like.hpp"
#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "par/serialize.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace salign::core {

namespace {

using align::EditOp;
using bio::Sequence;
using msa::Alignment;
using par::Bytes;
using par::ByteWriter;
using stage::RankedPartition;
using stage::RankedRef;

// ---- Stage catalogue ------------------------------------------------------

enum Stage : int {
  kLocalRank = 0,
  kLocalSort,
  kSampleSelect,
  kSampleExchange,
  kGlobalRank,
  kGlobalSort,
  kPivotGather,
  kPivotSelect,
  kPivotBcast,
  kBucketPartition,
  kRedistribute,
  kLocalAlign,
  kAncestorExtract,
  kAncestorGather,
  kAncestorAlign,
  kAncestorBcast,
  kTweak,
  kGlueGather,
  kGlue,
  kPolish,
  kNumStages,
};

struct StageInfo {
  const char* name;
  CommPattern pattern;
};

constexpr std::array<StageInfo, kNumStages> kStageInfo{{
    {"local k-mer rank", CommPattern::None},
    {"local sort", CommPattern::None},
    {"sample selection", CommPattern::None},
    {"sample exchange", CommPattern::AllGather},
    {"globalized k-mer rank", CommPattern::None},
    {"sort by global rank", CommPattern::None},
    {"pivot candidate gather", CommPattern::Gather},
    {"pivot selection (root)", CommPattern::None},
    {"pivot broadcast", CommPattern::Broadcast},
    {"bucket partition", CommPattern::None},
    {"sequence redistribution", CommPattern::AllToAll},
    {"local alignment", CommPattern::None},
    {"ancestor extraction", CommPattern::None},
    {"ancestor gather", CommPattern::Gather},
    {"global ancestor alignment (root)", CommPattern::None},
    {"global ancestor broadcast", CommPattern::Broadcast},
    {"ancestor profile tweak", CommPattern::None},
    {"glue gather", CommPattern::Gather},
    {"glue (root)", CommPattern::None},
    {"divergent polish (root)", CommPattern::None},
}};

/// Runs fn(rank) for every rank concurrently — one deterministic chunk per
/// rank — adding each rank's CPU seconds (of the worker that ran the rank's
/// segment: immune to host oversubscription, but blind to shared-pool
/// workers a threaded local aligner borrows) and wall seconds to its own
/// slots of `st`. fn must write only to per-rank slots; chunk geometry never
/// depends on scheduling, so neither do outputs. Resumed stages never run
/// fn, so their slots stay zero — reflecting that no work was done.
void for_each_rank(StageStats& st, int p,
                   const std::function<void(int)>& fn) {
  util::parallel_for(
      static_cast<std::size_t>(p),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          util::ThreadCpuTimer cpu;
          util::Stopwatch watch;
          fn(static_cast<int>(r));
          st.rank_seconds[r] += cpu.seconds();
          st.rank_wall_seconds[r] += watch.seconds();
        }
      },
      static_cast<unsigned>(p));
}

/// Root-only segment (pivot selection, global-ancestor alignment, glue,
/// polish) charged to rank 0.
template <typename Fn>
void timed_root(StageStats& st, Fn&& fn) {
  util::ThreadCpuTimer cpu;
  util::Stopwatch watch;
  fn();
  st.rank_seconds[0] += cpu.seconds();
  st.rank_wall_seconds[0] += watch.seconds();
}

/// The p == 1 run's only rank runs undisturbed on the host, so its wall time
/// *is* the dedicated-node time (and avoids the coarse granularity some
/// containers give CLOCK_THREAD_CPUTIME_ID).
template <typename Fn>
Alignment timed_alone(StageStats& st, Fn&& fn) {
  util::Stopwatch watch;
  Alignment a = fn();
  st.rank_seconds[0] = st.rank_wall_seconds[0] = watch.seconds();
  return a;
}

/// The aligner every rank runs: the caller's, or MiniMuscle (the paper's
/// choice) recording its phases into `phases`.
std::shared_ptr<const msa::MsaAlgorithm> local_aligner(
    const SampleAlignDConfig& config, msa::AlignerPhaseStats* phases) {
  if (config.local_aligner) return config.local_aligner;
  msa::MuscleOptions o;
  o.threads = config.threads;
  o.phase_stats = phases;
  return std::make_shared<msa::MuscleAligner>(o);
}

void sort_refs(std::vector<RankedRef>& refs) {
  std::sort(refs.begin(), refs.end(), [](const RankedRef& a,
                                         const RankedRef& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.index < b.index;  // deterministic tie-break
  });
}

Bytes encode_ops(std::span<const EditOp> ops) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(ops.size()));
  for (EditOp op : ops) w.u8(static_cast<std::uint8_t>(op));
  return w.take();
}

// ---- Glue on the global-ancestor coordinate system ------------------------

/// Places every bucket's (tweaked) alignment into a shared column space:
/// global-ancestor columns are common anchors; insertions relative to the
/// ancestor get per-position insertion blocks sized by the widest bucket.
Alignment glue_on_ancestor(std::span<const Alignment> locals,
                           std::span<const std::vector<EditOp>> paths,
                           std::size_t ga_len, bio::AlphabetKind kind) {
  const std::size_t p = locals.size();

  // ins[b][g]: columns bucket b inserts immediately before ancestor column
  // g (g == ga_len collects trailing insertions).
  std::vector<std::vector<std::size_t>> ins(
      p, std::vector<std::size_t>(ga_len + 1, 0));
  for (std::size_t b = 0; b < p; ++b) {
    std::size_t g = 0;
    for (EditOp op : paths[b]) {
      switch (op) {
        case EditOp::Match: ++g; break;
        case EditOp::GapInA: ++g; break;          // ancestor col, no local col
        case EditOp::GapInB: ++ins[b][g]; break;  // local-only column
      }
    }
  }
  std::vector<std::size_t> ins_max(ga_len + 1, 0);
  for (std::size_t g = 0; g <= ga_len; ++g)
    for (std::size_t b = 0; b < p; ++b)
      ins_max[g] = std::max(ins_max[g], ins[b][g]);

  // Column layout: [ins block 0] GA0 [ins block 1] GA1 ... [ins block G].
  std::vector<std::size_t> ga_pos(ga_len, 0);
  std::size_t total = 0;
  for (std::size_t g = 0; g < ga_len; ++g) {
    total += ins_max[g];
    ga_pos[g] = total;
    ++total;
  }
  total += ins_max[ga_len];

  std::vector<msa::AlignedRow> rows;
  for (std::size_t b = 0; b < p; ++b) {
    const Alignment& local = locals[b];
    if (local.empty()) continue;
    const std::size_t first_row = rows.size();
    for (std::size_t r = 0; r < local.num_rows(); ++r) {
      msa::AlignedRow row;
      row.id = local.row(r).id;
      row.cells.assign(total, Alignment::kGap);
      rows.push_back(std::move(row));
    }

    auto block_start = [&](std::size_t g) {
      return g < ga_len ? ga_pos[g] - ins_max[g] : total - ins_max[ga_len];
    };
    std::size_t lc = 0;
    std::size_t g = 0;
    std::size_t seen = 0;  // insertions placed before ancestor column g
    auto place = [&](std::size_t pos) {
      for (std::size_t r = 0; r < local.num_rows(); ++r)
        rows[first_row + r].cells[pos] = local.cell(r, lc);
      ++lc;
    };
    for (EditOp op : paths[b]) {
      switch (op) {
        case EditOp::Match:
          place(ga_pos[g]);
          ++g;
          seen = 0;
          break;
        case EditOp::GapInA:
          ++g;
          seen = 0;
          break;
        case EditOp::GapInB:
          place(block_start(g) + seen);
          ++seen;
          break;
      }
    }
  }

  Alignment glued(std::move(rows), kind);
  glued.strip_all_gap_columns();
  return glued;
}

/// Fallback glue without the ancestor constraint: block-diagonal
/// concatenation (each bucket keeps private columns). Used by the
/// ancestor-ablation configuration.
Alignment glue_block_diagonal(std::span<const Alignment> locals,
                              bio::AlphabetKind kind) {
  std::size_t total = 0;
  for (const Alignment& a : locals) total += a.num_cols();

  std::vector<msa::AlignedRow> rows;
  std::size_t offset = 0;
  for (const Alignment& local : locals) {
    for (std::size_t r = 0; r < local.num_rows(); ++r) {
      msa::AlignedRow row;
      row.id = local.row(r).id;
      row.cells.assign(total, Alignment::kGap);
      for (std::size_t c = 0; c < local.num_cols(); ++c)
        row.cells[offset + c] = local.cell(r, c);
      rows.push_back(std::move(row));
    }
    offset += local.num_cols();
  }
  return Alignment(std::move(rows), kind);
}

/// Restores input row order of a glued alignment.
Alignment reorder_rows(
    const Alignment& glued,
    const std::unordered_map<std::string, std::size_t>& pos_of_id) {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(glued.num_rows());
  for (std::size_t row = 0; row < glued.num_rows(); ++row)
    order.emplace_back(pos_of_id.at(glued.row(row).id), row);
  std::sort(order.begin(), order.end());
  std::vector<std::size_t> rows;
  rows.reserve(order.size());
  for (const auto& [pos, row] : order) rows.push_back(row);
  return glued.subset(rows);
}

}  // namespace

SampleAlignD::SampleAlignD(SampleAlignDConfig config)
    : config_(std::move(config)) {
  if (config_.num_procs <= 0)
    throw std::invalid_argument("SampleAlignD: num_procs must be > 0");
}

util::Digest128 SampleAlignD::pipeline_hash(
    std::span<const bio::Sequence> seqs) const {
  util::StableHash h;
  h.str("salign.pipeline");
  h.u32(stage::kCheckpointFormatVersion);
  h.u32(static_cast<std::uint32_t>(config_.num_procs));
  h.u32(static_cast<std::uint32_t>(config_.kmer.k));
  h.u8(config_.kmer.compressed ? 1 : 0);
  h.u32(static_cast<std::uint32_t>(config_.samples_per_proc));
  h.u8(config_.rank_mode == RankMode::Globalized ? 0 : 1);
  h.u8(config_.ancestor_refinement ? 1 : 0);
  h.u8(config_.polish_divergent ? 1 : 0);
  h.f64(config_.consensus.max_gap_fraction);
  h.f64(config_.polish.fraction);
  h.u64(config_.polish.max_rows);
  h.u32(static_cast<std::uint32_t>(config_.polish.passes));
  bio::hash_gaps(h, config_.polish.gaps);
  h.f64(static_cast<double>(config_.polish.min_gain));
  bio::hash_matrix(h, *config_.matrix);
  local_aligner(config_, nullptr)->hash_config(h);
  // threads is deliberately NOT hashed: any thread count is bit-identical,
  // so a checkpoint written with -t 8 must resume under -t 1 and vice versa.
  const util::Digest128 in = bio::sequence_set_hash(seqs);
  h.u64(in.hi);
  h.u64(in.lo);
  return h.digest128();
}

msa::Alignment SampleAlignD::align(std::span<const bio::Sequence> seqs,
                                   PipelineStats* stats) const {
  if (seqs.empty()) throw std::invalid_argument("SampleAlignD: no sequences");
  {
    std::unordered_map<std::string, int> ids;
    for (const auto& s : seqs) {
      if (s.empty())
        throw std::invalid_argument("SampleAlignD: empty sequence " + s.id());
      if (++ids[s.id()] > 1)
        throw std::invalid_argument("SampleAlignD: duplicate id " + s.id());
    }
  }

  const int p = config_.num_procs;
  const auto up = static_cast<std::size_t>(p);
  const auto n = seqs.size();
  util::Stopwatch wall;

  msa::AlignerPhaseStats phases;
  const auto aligner = local_aligner(config_, &phases);

  // The run writes its one record in place: the caller's, or a local one.
  PipelineStats local_stats;
  PipelineStats& st = stats != nullptr ? *stats : local_stats;
  st = PipelineStats{};
  st.num_procs = p;
  st.threads = config_.threads;
  st.num_sequences = n;
  st.stages.resize(kNumStages);
  for (std::size_t s = 0; s < kNumStages; ++s) {
    st.stages[s].name = kStageInfo[s].name;
    st.stages[s].pattern = kStageInfo[s].pattern;
    st.stages[s].rank_seconds.assign(up, 0.0);
    st.stages[s].rank_wall_seconds.assign(up, 0.0);
  }
  // Bytes each rank sends per stage. Ranks run concurrently, so each adds
  // only to its own slot; the stage totals are folded in once, at the end.
  std::vector<std::vector<std::uint64_t>> rank_bytes(
      kNumStages, std::vector<std::uint64_t>(up, 0));

  // Deadline clock starts here; the budget is visible process-wide so
  // parallel_for chunks and guide-tree merges poll it without plumbing.
  util::Budget budget(config_.deadline_seconds, config_.cancel);
  util::ScopedBudget scoped_budget(&budget);

  stage::StageContext ctx(config_.checkpoint, pipeline_hash(seqs));
  stage::StageRunner runner(ctx);

  // Run-level fields shared by both exits below.
  const auto finish = [&] {
    st.wall_seconds = wall.seconds();
    st.artifacts = runner.records();
    st.resumed_stages = runner.resumed_stages();
    st.aligner_phases = phases.snapshot();
    st.quarantine_notes = ctx.quarantine_notes();
  };

  // p == 1: the pipeline degenerates to the sequential aligner (no
  // communication, no tweak — matching the paper's baseline column).
  if (p == 1) {
    Alignment aln = runner.run(
        "bucket-align", 11,
        [&] {
          return timed_alone(st.stages[kLocalAlign],
                             [&] { return aligner->align(seqs); });
        },
        par::write_alignment, par::read_alignment);
    if (config_.polish_divergent && aln.num_rows() >= 3) {
      aln = runner.run(
          "polish", 0,
          [&] {
            return timed_alone(st.stages[kPolish], [&] {
              Alignment a = aln;
              (void)msa::polish_divergent_rows(a, *config_.matrix,
                                               config_.polish);
              return a;
            });
          },
          par::write_alignment, par::read_alignment);
    }
    st.bucket_sizes = {n};
    finish();
    return aln;
  }

  // Index -> original position for the final row ordering.
  std::unordered_map<std::string, std::size_t> pos_of_id;
  for (std::size_t i = 0; i < n; ++i) pos_of_id.emplace(seqs[i].id(), i);

  const std::size_t samples_per_proc =
      config_.samples_per_proc > 0
          ? static_cast<std::size_t>(config_.samples_per_proc)
          : static_cast<std::size_t>(p - 1);

  /// Materializes the sequences a partition references (the artifact form
  /// stores indices; the sequences always come back from the input span, so
  /// resumed and fresh runs read identical bytes).
  const auto seqs_of = [&](const std::vector<RankedRef>& part) {
    std::vector<Sequence> out;
    out.reserve(part.size());
    for (const RankedRef& ref : part) out.push_back(seqs[ref.index]);
    return out;
  };
  const auto seqs_of_indices = [&](const std::vector<std::uint64_t>& idx) {
    std::vector<Sequence> out;
    out.reserve(idx.size());
    for (std::uint64_t i : idx) out.push_back(seqs[i]);
    return out;
  };

  // Step 1: contiguous block distribution, w = N/p (last rank may be short;
  // the paper "divides the files into equal parts"). Deterministic dealing,
  // so it is not a checkpointed stage of its own.
  RankedPartition blocks(up);
  {
    const std::size_t chunk = (n + up - 1) / up;
    for (std::size_t r = 0; r < up; ++r) {
      const std::size_t begin = std::min(n, r * chunk);
      const std::size_t end = std::min(n, begin + chunk);
      blocks[r].reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i)
        blocks[r].push_back(RankedRef{i, 0.0});
    }
  }

  // Step 2: local k-mer rank (each sequence vs the local block).
  RankedPartition cur = runner.run(
      "local-rank", 2,
      [&] {
        RankedPartition out = blocks;
        for_each_rank(st.stages[kLocalRank], p, [&](int r) {
          auto& part = out[static_cast<std::size_t>(r)];
          const std::vector<double> ranks =
              kmer::centralized_ranks(seqs_of(part), config_.kmer);
          for (std::size_t i = 0; i < part.size(); ++i)
            part[i].rank = ranks[i];
        });
        return out;
      },
      stage::write_ranked_partition, stage::read_ranked_partition);

  // Step 3: local sort by rank.
  cur = runner.run(
      "local-sort", 3,
      [&] {
        RankedPartition out = cur;
        for_each_rank(st.stages[kLocalSort], p, [&](int r) {
          sort_refs(out[static_cast<std::size_t>(r)]);
        });
        return out;
      },
      stage::write_ranked_partition, stage::read_ranked_partition);

  // Steps 4-7 implement the globalized re-rank of §2.3.1; the predecessor
  // Sample-Align system [34] (RankMode::LocalOnly) skips them and pivots on
  // the local-block ranks — kept as the homogeneity-assumption ablation.
  if (config_.rank_mode == RankMode::Globalized) {
    // Step 4: choose k sample sequences, evenly spaced in rank order.
    const std::vector<std::vector<std::uint64_t>> sample_idx = runner.run(
        "sample-select", 4,
        [&] {
          std::vector<std::vector<std::uint64_t>> out(up);
          for_each_rank(st.stages[kSampleSelect], p, [&](int r) {
            const auto& items = cur[static_cast<std::size_t>(r)];
            const std::size_t k =
                std::min(samples_per_proc, items.empty() ? 0 : items.size());
            for (std::size_t i = 0; i < k; ++i) {
              const std::size_t pos =
                  std::min(items.size() - 1, (i + 1) * items.size() / (k + 1));
              out[static_cast<std::size_t>(r)].push_back(items[pos].index);
            }
          });
          return out;
        },
        stage::write_index_lists, stage::read_index_lists);

    // Step 5: exchange samples (k*p sequences known to every rank).
    const std::vector<std::uint64_t> sample_flat = runner.run(
        "sample-exchange", 5,
        [&] {
          // Each rank serializes its contribution; the all-gather charges
          // own-payload × (p-1) per rank. The payloads are only sized, never
          // decoded: ranks share the input, so the samples are rebuilt from
          // the gathered indices below.
          for_each_rank(st.stages[kSampleExchange], p, [&](int r) {
            ByteWriter w;
            par::write_sequences(
                w, seqs_of_indices(sample_idx[static_cast<std::size_t>(r)]));
            rank_bytes[kSampleExchange][static_cast<std::size_t>(r)] +=
                w.size() * (up - 1);
          });
          std::vector<std::uint64_t> flat;
          for (const auto& list : sample_idx)
            flat.insert(flat.end(), list.begin(), list.end());
          return flat;
        },
        stage::write_indices, stage::read_indices);
    const std::vector<Sequence> samples = seqs_of_indices(sample_flat);

    // Step 6: globalized rank — every local sequence vs the global sample.
    cur = runner.run(
        "global-rank", 6,
        [&] {
          RankedPartition out = cur;
          for_each_rank(st.stages[kGlobalRank], p, [&](int r) {
            auto& part = out[static_cast<std::size_t>(r)];
            const std::vector<double> ranks = kmer::ranks_against(
                kmer::build_profiles(seqs_of(part), config_.kmer),
                kmer::build_profiles(samples, config_.kmer));
            for (std::size_t i = 0; i < part.size(); ++i)
              part[i].rank = ranks[i];
          });
          return out;
        },
        stage::write_ranked_partition, stage::read_ranked_partition);

    // Step 7: re-sort by globalized rank.
    cur = runner.run(
        "global-sort", 7,
        [&] {
          RankedPartition out = cur;
          for_each_rank(st.stages[kGlobalSort], p, [&](int r) {
            sort_refs(out[static_cast<std::size_t>(r)]);
          });
          return out;
        },
        stage::write_ranked_partition, stage::read_ranked_partition);
  }

  // Steps 8-9: regular sampling of rank keys; root sorts the p(p-1)
  // candidates, picks p-1 pivots and broadcasts them.
  const std::vector<double> pivots = runner.run(
      "pivot-select", 8,
      [&] {
        std::vector<std::vector<double>> cands(up);
        for_each_rank(st.stages[kPivotGather], p, [&](int r) {
          const auto ur = static_cast<std::size_t>(r);
          std::vector<double> keys;
          keys.reserve(cur[ur].size());
          for (const RankedRef& item : cur[ur]) keys.push_back(item.rank);
          cands[ur] = regular_samples(keys, up - 1);
          ByteWriter w;
          w.u32(static_cast<std::uint32_t>(cands[ur].size()));
          for (double c : cands[ur]) w.f64(c);
          rank_bytes[kPivotGather][ur] += r == 0 ? 0 : w.size();
        });
        std::vector<double> chosen;
        timed_root(st.stages[kPivotSelect], [&] {
          std::vector<double> all;
          for (const auto& c : cands) all.insert(all.end(), c.begin(), c.end());
          chosen = choose_pivots(std::move(all), p);
          ByteWriter pw;
          pw.u32(static_cast<std::uint32_t>(chosen.size()));
          for (double v : chosen) pw.f64(v);
          rank_bytes[kPivotBcast][0] += pw.size() * (up - 1);
        });
        return chosen;
      },
      stage::write_doubles, stage::read_doubles);

  // Step 10: bucket the local sequences and redistribute all-to-all.
  const RankedPartition buckets = runner.run(
      "redistribute", 10,
      [&] {
        // send[src][dst], in src-local order — the deterministic equivalent
        // of the personalized all-to-all's per-destination messages.
        std::vector<RankedPartition> send(up, RankedPartition(up));
        for_each_rank(st.stages[kBucketPartition], p, [&](int r) {
          const auto ur = static_cast<std::size_t>(r);
          std::vector<ByteWriter> writers(up);
          std::vector<std::uint32_t> counts(up, 0);
          for (const RankedRef& item : cur[ur])
            ++counts[bucket_of(item.rank, pivots)];
          for (std::size_t d = 0; d < up; ++d) writers[d].u32(counts[d]);
          for (const RankedRef& item : cur[ur]) {
            const std::size_t d = bucket_of(item.rank, pivots);
            writers[d].u64(item.index);
            writers[d].f64(item.rank);
            par::write_sequence(writers[d], seqs[item.index]);
            send[ur][d].push_back(item);
          }
          std::uint64_t sent = 0;
          for (std::size_t d = 0; d < up; ++d) {
            const Bytes b = writers[d].take();
            if (d != ur) sent += b.size();
          }
          rank_bytes[kRedistribute][ur] += sent;
        });
        RankedPartition out(up);
        for_each_rank(st.stages[kRedistribute], p, [&](int d) {
          const auto ud = static_cast<std::size_t>(d);
          for (std::size_t src = 0; src < up; ++src)
            out[ud].insert(out[ud].end(), send[src][ud].begin(),
                           send[src][ud].end());
          sort_refs(out[ud]);
        });
        return out;
      },
      stage::write_ranked_partition, stage::read_ranked_partition);

  // Step 11: sequential MSA on the bucket.
  const std::vector<Alignment> locals = runner.run(
      "bucket-align", 11,
      [&] {
        std::vector<Alignment> out(up);
        for_each_rank(st.stages[kLocalAlign], p, [&](int r) {
          const auto ur = static_cast<std::size_t>(r);
          const std::vector<Sequence> bucket_seqs = seqs_of(buckets[ur]);
          if (!bucket_seqs.empty())
            out[ur] = aligner->align(bucket_seqs);
        });
        return out;
      },
      stage::write_alignments, stage::read_alignments);

  Sequence ga;                             // global ancestor (steps 12-13)
  std::vector<std::vector<EditOp>> paths;  // tweak paths (step 14)
  if (config_.ancestor_refinement) {
    // Steps 12-13: local ancestors; root aligns them into the global
    // ancestor and broadcasts it.
    ga = runner.run(
        "ancestor", 12,
        [&] {
          std::vector<Sequence> ancestors(up);
          for_each_rank(st.stages[kAncestorExtract], p, [&](int r) {
            const auto ur = static_cast<std::size_t>(r);
            const Alignment& local_aln = locals[ur];
            ancestors[ur] =
                Sequence("ancestor_" + std::to_string(r),
                         std::vector<std::uint8_t>{},
                         local_aln.empty() ? bio::AlphabetKind::AminoAcid
                                           : local_aln.alphabet_kind());
            if (!local_aln.empty())
              ancestors[ur] = msa::consensus_sequence(
                  local_aln, "ancestor_" + std::to_string(r),
                  config_.consensus);
          });
          for_each_rank(st.stages[kAncestorGather], p, [&](int r) {
            ByteWriter w;
            par::write_sequence(w, ancestors[static_cast<std::size_t>(r)]);
            rank_bytes[kAncestorGather][static_cast<std::size_t>(r)] +=
                r == 0 ? 0 : w.size();
          });
          Sequence global("global_ancestor", std::vector<std::uint8_t>{},
                          bio::AlphabetKind::AminoAcid);
          timed_root(st.stages[kAncestorAlign], [&] {
            std::vector<Sequence> present;
            for (const Sequence& a : ancestors)
              if (!a.empty()) present.push_back(a);
            if (present.size() == 1) {
              global = Sequence("global_ancestor",
                                std::vector<std::uint8_t>(
                                    present[0].codes().begin(),
                                    present[0].codes().end()),
                                present[0].alphabet_kind());
            } else if (!present.empty()) {
              const Alignment anc_aln = aligner->align(present);
              global = msa::consensus_sequence(anc_aln, "global_ancestor",
                                               config_.consensus);
            }
            ByteWriter gw;
            par::write_sequence(gw, global);
            rank_bytes[kAncestorBcast][0] += gw.size() * (up - 1);
          });
          return global;
        },
        par::write_sequence, par::read_sequence);

    // Step 14: tweak — profile-profile align the local alignment against
    // the global-ancestor profile.
    paths = runner.run(
        "tweak", 14,
        [&] {
          std::vector<std::vector<EditOp>> out(up);
          for_each_rank(st.stages[kTweak], p, [&](int r) {
            const auto ur = static_cast<std::size_t>(r);
            const Alignment& local_aln = locals[ur];
            if (!local_aln.empty()) {
              const msa::Profile pl(local_aln, *config_.matrix);
              if (ga.empty()) {
                out[ur].assign(local_aln.num_cols(), EditOp::GapInB);
              } else {
                const msa::Profile pg(Alignment::from_sequence(ga),
                                      *config_.matrix);
                msa::ProfileAlignOptions po;
                po.gaps = config_.matrix->default_gaps();
                out[ur] = msa::align_profiles(pl, pg, po).ops;
              }
            } else if (!ga.empty()) {
              out[ur].assign(ga.size(), EditOp::GapInA);
            }
          });
          return out;
        },
        stage::write_paths, stage::read_paths);
  }

  // Step 15: glue at the root — on the shared global-ancestor coordinates,
  // or, in the no-ancestor ablation, block-diagonally from the raw bucket
  // alignments.
  Alignment result = runner.run(
      "glue", 15,
      [&] {
        for_each_rank(st.stages[kGlueGather], p, [&](int r) {
          const auto ur = static_cast<std::size_t>(r);
          ByteWriter w;
          par::write_alignment(w, locals[ur]);
          if (config_.ancestor_refinement) w.bytes(encode_ops(paths[ur]));
          rank_bytes[kGlueGather][ur] += r == 0 ? 0 : w.size();
        });
        Alignment reordered;
        timed_root(st.stages[kGlue], [&] {
          const bio::AlphabetKind kind = seqs[0].alphabet_kind();
          const Alignment glued =
              config_.ancestor_refinement
                  ? glue_on_ancestor(locals, paths, ga.size(), kind)
                  : glue_block_diagonal(locals, kind);
          reordered = reorder_rows(glued, pos_of_id);
        });
        return reordered;
      },
      par::write_alignment, par::read_alignment);

  // Future-work refinement (paper §5): root-side re-alignment of the most
  // divergent rows against the global profile.
  if (config_.polish_divergent && result.num_rows() >= 3) {
    result = runner.run(
        "polish", 0,
        [&] {
          Alignment a;
          timed_root(st.stages[kPolish], [&] {
            a = result;
            (void)msa::polish_divergent_rows(a, *config_.matrix,
                                             config_.polish);
          });
          return a;
        },
        par::write_alignment, par::read_alignment);
  }

  st.bucket_sizes.resize(up);
  for (std::size_t d = 0; d < up; ++d) st.bucket_sizes[d] = buckets[d].size();
  for (std::size_t s = 0; s < kNumStages; ++s) {
    for (std::uint64_t b : rank_bytes[s]) {
      st.stages[s].total_bytes += b;
      st.stages[s].max_bytes_per_rank =
          std::max(st.stages[s].max_bytes_per_rank, b);
    }
  }
  finish();

  result.validate();
  return result;
}

}  // namespace salign::core
