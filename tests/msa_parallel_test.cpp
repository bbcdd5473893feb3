// PR 4 invariance suites: (a) the vectorized wavefront profile DP must be
// bit-identical to the retained scalar path on randomized profiles and
// bands; (b) the guide-tree task scheduler must produce
// bit-identical alignments for every thread count, across every aligner
// built on it and the full Sample-Align-D pipeline; (c) the shared thread
// pool's fork-join primitive behaves under contention and nesting.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sample_align_d.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/clustalw_like.hpp"
#include "msa/mafft_like.hpp"
#include "msa/muscle_like.hpp"
#include "msa/probcons_like.hpp"
#include "msa/profile.hpp"
#include "msa/profile_align.hpp"
#include "msa/progressive.hpp"
#include "msa/tcoffee_like.hpp"
#include "msa/tree_schedule.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/rose.hpp"

namespace salign::msa {
namespace {

using bio::Sequence;
using bio::SubstitutionMatrix;

const SubstitutionMatrix& B62() { return SubstitutionMatrix::blosum62(); }

std::vector<Sequence> family(std::size_t n, std::size_t len, double rel,
                             std::uint64_t seed) {
  return workload::rose_sequences(
      {.num_sequences = n, .average_length = len, .relatedness = rel,
       .seed = seed});
}

std::string fingerprint(const Alignment& a) {
  std::string fp;
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    fp += a.row(r).id + ":" + a.row_text(r) + "\n";
  return fp;
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1U, 2U, 3U, 8U, 64U}) {
    std::vector<std::atomic<int>> hits(1000);
    util::parallel_for(
        hits.size(),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) ++hits[i];
        },
        threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  std::atomic<int> total{0};
  util::parallel_for(
      8,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          util::parallel_for(
              16, [&](std::size_t b2, std::size_t e2) {
                total += static_cast<int>(e2 - b2);
              },
              4);
      },
      4);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, RunPropagatesWorkerException) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  std::atomic<int> calls{0};
  EXPECT_THROW(
      pool.run(3,
               [&] {
                 if (calls.fetch_add(1) == 0)
                   throw std::runtime_error("boom");
               }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroExtraWorkersRunsInline) {
  util::ThreadPool local(0);
  int calls = 0;
  local.run(4, [&] { ++calls; });
  EXPECT_EQ(calls, 1);
}

// ---- schedule_tree ---------------------------------------------------------

TEST(ScheduleTree, RespectsDependenciesForEveryThreadCount) {
  const auto seqs = family(33, 30, 600, 11);
  const GuideTree tree =
      GuideTree::upgma(kmer::distance_matrix(seqs, {}));
  for (unsigned threads : {1U, 2U, 5U, 16U}) {
    std::vector<std::atomic<int>> done(tree.num_nodes());
    std::atomic<int> order_violations{0};
    schedule_tree(tree, threads, [&](int id) {
      const TreeNode& nd = tree.node(static_cast<std::size_t>(id));
      if (nd.left >= 0) {
        if (done[static_cast<std::size_t>(nd.left)].load() != 1 ||
            done[static_cast<std::size_t>(nd.right)].load() != 1)
          ++order_violations;
      }
      ++done[static_cast<std::size_t>(id)];
    });
    EXPECT_EQ(order_violations.load(), 0) << threads;
    for (const auto& d : done) EXPECT_EQ(d.load(), 1);
  }
}

TEST(ScheduleTree, PropagatesNodeException) {
  const auto seqs = family(9, 20, 600, 12);
  const GuideTree tree =
      GuideTree::upgma(kmer::distance_matrix(seqs, {}));
  EXPECT_THROW(schedule_tree(tree, 4,
                             [&](int id) {
                               if (id == tree.root())
                                 throw std::runtime_error("root");
                             }),
               std::runtime_error);
}

// ---- wavefront profile DP vs scalar reference ------------------------------

/// Randomized differential: random sub-families aligned into two profiles,
/// random weights, random gap penalties, random band; the
/// wavefront and scalar kernels must agree on score bits and ops exactly.
TEST(ProfileDpDifferential, WavefrontMatchesScalarRandomized) {
  util::Rng rng(991);
  const MuscleAligner aligner;
  for (int rep = 0; rep < 60; ++rep) {
    const std::size_t na = 2 + rng.below(5);
    const std::size_t nb = 2 + rng.below(5);
    const std::size_t len = 12 + rng.below(140);
    const double rel = 300 + rng.uniform(0, 900);
    const auto sa = family(na, len, rel, 1000 + rng.below(1U << 20));
    const auto sb = family(nb, len + rng.below(40), rel,
                           2000000 + rng.below(1U << 20));
    const Alignment left = aligner.align(sa);
    const Alignment right = aligner.align(sb);

    std::vector<double> wa(left.num_rows()), wb(right.num_rows());
    for (auto& w : wa) w = rng.uniform(0.2, 2.0);
    for (auto& w : wb) w = rng.uniform(0.2, 2.0);
    const Profile pa(left, B62(), rng.chance(0.5) ? wa : std::vector<double>{});
    const Profile pb(right, B62(),
                     rng.chance(0.5) ? wb : std::vector<double>{});

    ProfileAlignOptions po;
    po.gaps = bio::GapPenalties{static_cast<float>(rng.uniform(2.0, 14.0)),
                                static_cast<float>(rng.uniform(0.2, 2.0))};
    if (rng.chance(0.4)) po.band = 1 + rng.below(24);

    const ProfileAlignResult ref = detail::align_profiles_reference(pa, pb, po);
    const ProfileAlignResult vec = align_profiles(pa, pb, po);

    ASSERT_EQ(ref.score, vec.score) << "rep " << rep;
    ASSERT_EQ(ref.ops, vec.ops) << "rep " << rep;
  }
}

TEST(ProfileDpDifferential, DegenerateShapes) {
  const auto one = family(1, 1, 600, 77);
  const auto big = family(3, 90, 600, 78);
  const MuscleAligner aligner;
  const Alignment tiny = Alignment::from_sequence(one[0]);
  const Alignment wide = aligner.align(big);
  for (const auto* a : {&tiny, &wide})
    for (const auto* b : {&tiny, &wide}) {
      const Profile pa(*a, B62());
      const Profile pb(*b, B62());
      ProfileAlignOptions po;
      po.gaps = B62().default_gaps();
      const ProfileAlignResult ref =
          detail::align_profiles_reference(pa, pb, po);
      const ProfileAlignResult vec = align_profiles(pa, pb, po);
      EXPECT_EQ(ref.score, vec.score);
      EXPECT_EQ(ref.ops, vec.ops);
    }
}

// ---- progressive thread invariance -----------------------------------------

TEST(ProgressiveThreads, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(4242);
  for (int rep = 0; rep < 6; ++rep) {
    const std::size_t n = 6 + rng.below(22);
    const auto seqs =
        family(n, 25 + rng.below(60), 400 + rng.uniform(0, 700),
               5000 + rng.below(1U << 20));
    const GuideTree tree =
        GuideTree::upgma(kmer::distance_matrix(seqs, {}));
    ProgressiveOptions po;
    po.gaps = B62().default_gaps();
    if (rng.chance(0.5)) po.weights = tree.leaf_weights();
    if (rng.chance(0.3)) {
      const std::size_t band = 8 + rng.below(32);
      po.band_provider = [band](const Alignment&, const Alignment&) {
        return band;
      };
    }
    po.threads = 1;
    const Alignment serial = progressive_align(seqs, tree, B62(), po);
    for (unsigned threads : {2U, 4U, 16U}) {
      po.threads = threads;
      const Alignment parallel = progressive_align(seqs, tree, B62(), po);
      ASSERT_EQ(fingerprint(serial), fingerprint(parallel))
          << "rep " << rep << " threads " << threads;
    }
  }
}

TEST(AlignerThreads, AllTreeAlignersThreadInvariant) {
  const auto seqs = family(10, 40, 700, 31337);
  const auto run = [&](unsigned threads) {
    std::vector<std::string> prints;
    {
      MuscleOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(MuscleAligner(o).align(seqs)));
    }
    {
      ClustalWOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(ClustalWAligner(o).align(seqs)));
    }
    {
      MafftOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(MafftAligner(o).align(seqs)));
    }
    {
      TCoffeeOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(TCoffeeAligner(o).align(seqs)));
    }
    {
      ProbConsOptions o;
      o.threads = threads;
      prints.push_back(fingerprint(ProbConsAligner(o).align(seqs)));
    }
    return prints;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(3));
  EXPECT_EQ(serial, run(8));
}

TEST(AlignerThreads, ScoreGuideTreeModeIsThreadInvariant) {
  const auto seqs = family(12, 50, 600, 97);
  MuscleOptions o;
  o.stage1_distance = MuscleOptions::GuideTree::kScore;
  o.threads = 1;
  const std::string serial = fingerprint(MuscleAligner(o).align(seqs));
  o.threads = 6;
  EXPECT_EQ(serial, fingerprint(MuscleAligner(o).align(seqs)));
}

// ---- full pipeline thread invariance ---------------------------------------

TEST(PipelineThreads, SampleAlignDBitIdenticalAcrossThreads) {
  const auto seqs = family(24, 40, 700, 271828);
  const auto run = [&](unsigned threads) {
    core::SampleAlignDConfig cfg;
    cfg.num_procs = 3;
    cfg.threads = threads;
    core::PipelineStats stats;
    const Alignment a = core::SampleAlignD(cfg).align(seqs, &stats);
    EXPECT_EQ(stats.threads, threads);
    return fingerprint(a);
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace salign::msa
