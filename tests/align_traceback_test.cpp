// Tests for the striped integer FULL-alignment tier and the inter-pair
// batched int8 kernel (engine::AlignBatch, engine::PairBatch, and the
// alignment_distance_matrix routing over them):
//
//  * randomized striped-traceback-vs-reference differential — AlignBatch's
//    promotion ladder, score AND ops (tie-breaks included) must equal the
//    retained reference kernel EXACTLY, on random, degenerate and empty
//    inputs, integral and non-integral penalties; the inputs alone route
//    pairs to int8, int16 and float, and the Stats counters show each ran;
//  * adversarial near-rail cases — the alignment tier's E/F floor rail is
//    stricter than the score tier's H rails: pairs engineered to clamp E/F
//    without touching an H rail must promote (trace_promotions) and stay
//    exact;
//  * inter-pair batch kernel — ok lanes bit-identical to the reference,
//    saturating lanes reported not-ok, length-mixed groups exact;
//  * alignment_distance_matrix — batched/laddered routing bit-identical
//    to the per-pair reference loop for every thread count, visitor order
//    preserved, saturated batch lanes retried through the ladder,
//    non-integral penalties on the float path, bands unaffected;
//  * kimura_distance saturation — the kMaxGuideTreeDistance clamp applied
//    consistently across the distance drivers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "align/distance.hpp"
#include "align/engine/batch.hpp"
#include "align/engine/engine.hpp"
#include "align/engine/pair_batch.hpp"
#include "bio/sequence.hpp"
#include "bio/substitution_matrix.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace salign::align {
namespace {

using bio::GapPenalties;
using bio::Sequence;
using bio::SubstitutionMatrix;
using engine::AlignBatch;
using engine::PairBatch;

std::vector<std::uint8_t> random_codes(util::Rng& rng, std::size_t len,
                                       int letters) {
  std::vector<std::uint8_t> v(len);
  for (auto& c : v)
    c = static_cast<std::uint8_t>(
        rng.below(static_cast<std::uint64_t>(letters)));
  return v;
}

/// ~identity-fraction mutants of a fresh random query.
std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>> mutant_pair(
    util::Rng& rng, std::size_t len, int letters, double mutate) {
  auto a = random_codes(rng, len, letters);
  auto b = a;
  for (auto& c : b)
    if (rng.chance(mutate))
      c = static_cast<std::uint8_t>(
          rng.below(static_cast<std::uint64_t>(letters)));
  return {std::move(a), std::move(b)};
}

struct Scenario {
  const SubstitutionMatrix* matrix;
  int letters;
};

std::vector<Scenario> scenarios() {
  return {
      {&SubstitutionMatrix::blosum62(), 20},
      {&SubstitutionMatrix::blosum62(), 21},  // with wildcard X
      {&SubstitutionMatrix::pam250(), 20},
      {&SubstitutionMatrix::dna_default(), 4},
      {&SubstitutionMatrix::dna_default(), 5},  // with wildcard N
  };
}

PairwiseAlignment ref_align(std::span<const std::uint8_t> a,
                            std::span<const std::uint8_t> b,
                            const SubstitutionMatrix& m, GapPenalties g) {
  if (a.empty() && b.empty()) return {};
  return engine::reference::global_align(a, b, m, g);
}

void expect_same(const PairwiseAlignment& ref, const PairwiseAlignment& got,
                 const char* what) {
  EXPECT_EQ(ref.score, got.score) << what;
  ASSERT_EQ(ref.ops.size(), got.ops.size()) << what;
  EXPECT_TRUE(ref.ops == got.ops) << what << ": ops diverge";
}

// ---- striped traceback differential -------------------------------------------

TEST(StripedTracebackDifferential, AllTiersMatchReferenceExactly) {
  util::Rng rng(0xC1);
  const auto scen = scenarios();
  engine::LadderStats total;
  for (int trial = 0; trial < 60; ++trial) {
    const Scenario& sc = scen[trial % scen.size()];
    const std::size_t la = rng.below(160);
    const std::size_t lb = rng.below(160);
    const auto a = random_codes(rng, la, sc.letters);
    const auto b = random_codes(rng, lb, sc.letters);
    GapPenalties g;
    g.open = static_cast<float>(1 + rng.below(14));
    g.extend = static_cast<float>(1 + rng.below(4)) * 0.5F;  // incl. 0.5/1.5

    AlignBatch batch(a, *sc.matrix, g);
    const PairwiseAlignment got = batch.align(b);
    char label[32];
    std::snprintf(label, sizeof label, "trial %d", trial);
    expect_same(ref_align(a, b, *sc.matrix, g), got, label);
    total += batch.stats();
  }
  // Short pairs under integral penalties run int8, pairs past int8's
  // boundary rail int16, half-integer penalties float.
  EXPECT_GT(total.int8_runs, 0u);
  EXPECT_GT(total.int16_runs, 0u);
  EXPECT_GT(total.float_runs, 0u);
}

TEST(StripedTracebackDifferential, SimilarPairsAndLongerSequences) {
  // Homolog-like pairs (the distance stage's real workload) and lengths
  // that span several column checkpoints (interval >= 32), so the
  // block-recompute traceback crosses block boundaries many times.
  util::Rng rng(0xC2);
  const auto& m = SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t len = 120 + rng.below(280);
    const auto [a, b] = mutant_pair(rng, len, 20, 0.3 + 0.1 * (trial % 5));
    const GapPenalties g{static_cast<float>(8 + trial % 5), 1.0F};
    const PairwiseAlignment ref = ref_align(a, b, m, g);
    AlignBatch batch(a, m, g);
    expect_same(ref, batch.align(b), "homolog pair");
  }
}

TEST(StripedTracebackDifferential, ReusedBatchTracksStats) {
  // One row profile, many counterparts — and the integer tiers must
  // actually carry the load (a silent always-promote would still be exact
  // but would defeat the PR).
  util::Rng rng(0xC3);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.0F, 1.0F};
  const auto query = random_codes(rng, 90, 20);
  AlignBatch batch(query, m, g);
  for (int i = 0; i < 16; ++i) {
    const auto other = random_codes(rng, 40 + rng.below(80), 20);
    expect_same(ref_align(query, other, m, g), batch.align(other),
                "reused batch");
  }
  EXPECT_GT(batch.stats().int8_runs + batch.stats().int16_runs, 0u)
      << "integer tiers never ran";
  EXPECT_GT(batch.stats().int8_runs + batch.stats().int16_runs,
            batch.stats().promotions)
      << "every integer run promoted — the tiers carry no load";
}

TEST(StripedTracebackPromotion, HighScorePairPromotesAndStaysExact) {
  // Identical 80-residue proteins: the self-score blows the int8 ceiling,
  // the ladder promotes, and the alignment is still reference-exact.
  util::Rng rng(0xC4);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.0F, 1.0F};
  const auto a = random_codes(rng, 80, 20);
  AlignBatch batch(a, m, g);
  expect_same(ref_align(a, a, m, g), batch.align(a), "self pair");
  EXPECT_GE(batch.stats().int8_runs, 1u);
  EXPECT_GE(batch.stats().promotions, 1u);
}

TEST(StripedTracebackPromotion, AlignmentRailsAreStricterThanScoreRails) {
  // The score tiers only need exact H
  // (a clamped E/F that never wins a cell cannot move the score), but the
  // traceback READS E/F, so the alignment tier must also promote when a
  // stored E/F sat on the floor rail. This sweep deterministically hits
  // such a pair (random ~5%-identity proteins hover within `open` of the
  // int8 floor, clamping E chains while H stays inside the rails): the
  // forward/score pass accepts int8, the traceback rejects it — and the
  // result must STILL be reference-exact through the promotion.
  util::Rng rng(12);
  const auto& m = SubstitutionMatrix::blosum62();
  std::size_t trace_promotions = 0;
  for (int t = 0; t < 200 && trace_promotions == 0; ++t) {
    const std::size_t len = 60 + rng.below(40);
    const GapPenalties g{static_cast<float>(8 + rng.below(6)),
                         static_cast<float>(1 + rng.below(2))};
    const auto a = random_codes(rng, len, 20);
    const auto b = random_codes(rng, len, 20);
    AlignBatch batch(a, m, g);
    expect_same(ref_align(a, b, m, g), batch.align(b), "near-rail pair");
    if (batch.stats().trace_promotions > 0) {
      ++trace_promotions;
      // The same pair through the SCORE tier must not promote: the H rails
      // were fine — only the alignment-tier E/F check fired.
      engine::ScoreBatch score(a, m, g);
      EXPECT_EQ(score.score(b), ref_align(a, b, m, g).score);
      EXPECT_GE(score.stats().int8_runs, 1u);
      EXPECT_EQ(score.stats().promotions, 0u)
          << "expected a pair that is score-exact in int8 yet "
             "traceback-inexact";
    }
  }
  EXPECT_GE(trace_promotions, 1u)
      << "sweep no longer reaches the E/F floor rail — regenerate the seed";
}

TEST(StripedTracebackEdge, EmptyAndTinyInputs) {
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{11.0F, 1.0F};
  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> one{3};
  const std::vector<std::uint8_t> three{1, 2, 3};
  for (const auto* pa : {&empty, &one, &three}) {
    for (const auto* pb : {&empty, &one, &three}) {
      AlignBatch batch(*pa, m, g);
      expect_same(ref_align(*pa, *pb, m, g), batch.align(*pb), "degenerate");
    }
  }
}

// ---- inter-pair batch kernel ---------------------------------------------------

TEST(PairBatchKernel, OkLanesMatchReferenceExactly) {
  util::Rng rng(0xC5);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.0F, 1.0F};
  PairBatch pb(m, g);
  ASSERT_GT(pb.max_len(), 8u);
  for (int round = 0; round < 6; ++round) {
    std::vector<std::vector<std::uint8_t>> store;
    std::vector<PairBatch::Pair> pairs;
    for (std::size_t l = 0; l < pb.lanes(); ++l) {
      // Divergent short pairs of mixed lengths (padded-overhang path).
      auto [a, b] = mutant_pair(rng, 1 + rng.below(pb.max_len()), 20, 0.8);
      store.push_back(std::move(a));
      store.push_back(std::move(b));
    }
    for (std::size_t l = 0; l < pb.lanes(); ++l)
      pairs.push_back({store[2 * l], store[2 * l + 1]});
    std::vector<PairwiseAlignment> outs(pairs.size());
    const std::unique_ptr<bool[]> ok(new bool[pairs.size()]());
    pb.align(pairs, outs.data(), ok.get());
    std::size_t ok_count = 0;
    for (std::size_t l = 0; l < pairs.size(); ++l) {
      if (!ok[l]) continue;
      ++ok_count;
      expect_same(ref_align(pairs[l].a, pairs[l].b, m, g), outs[l],
                  "batched lane");
    }
    EXPECT_GT(ok_count, 0u) << "no lane survived the int8 rails";
  }
}

TEST(PairBatchKernel, SaturatingLanesReportNotOk) {
  // Identical 90-residue pairs: the match run crosses the int8 ceiling, so
  // every lane must be flagged for the per-pair ladder — silently wrong
  // results are the one forbidden outcome.
  util::Rng rng(0xC6);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.0F, 1.0F};
  PairBatch pb(m, g);
  const auto a = random_codes(rng, 90, 20);
  std::vector<PairBatch::Pair> pairs(pb.lanes(), PairBatch::Pair{a, a});
  std::vector<PairwiseAlignment> outs(pairs.size());
  const std::unique_ptr<bool[]> ok(new bool[pairs.size()]());
  pb.align(pairs, outs.data(), ok.get());
  for (std::size_t l = 0; l < pairs.size(); ++l)
    EXPECT_FALSE(ok[l]) << "lane " << l;
}

TEST(PairBatchKernel, UnavailableForNonIntegralPenalties) {
  const auto& m = SubstitutionMatrix::blosum62();
  PairBatch pb(m, GapPenalties{10.5F, 0.5F});
  EXPECT_EQ(pb.max_len(), 0u);
}

// ---- distance-matrix routing ---------------------------------------------------

std::vector<Sequence> random_family(util::Rng& rng, std::size_t n,
                                    std::size_t min_len,
                                    std::size_t max_len) {
  std::vector<Sequence> seqs;
  const auto root =
      random_codes(rng, min_len + rng.below(max_len - min_len), 20);
  for (std::size_t s = 0; s < n; ++s) {
    auto codes = root;
    codes.resize(min_len + rng.below(max_len - min_len), 0);
    for (auto& c : codes)
      if (rng.chance(0.6)) c = static_cast<std::uint8_t>(rng.below(20));
    seqs.emplace_back(util::indexed_name("s", s), std::move(codes),
                      bio::AlphabetKind::AminoAcid);
  }
  return seqs;
}

TEST(DistanceMatrixAligned, MatchesPerPairReferenceForEveryThreadCount) {
  util::Rng rng(0xC7);
  // Mixed lengths straddling the int8 batch cap: short pairs take the
  // inter-pair kernel, long ones the striped/float ladder. 20 sequences
  // puts rows past the planner's kMaxRowRun split, covering the
  // bounded-row-run task shape too.
  const auto seqs = random_family(rng, 20, 30, 160);
  const auto& m = SubstitutionMatrix::blosum62();
  // Integral penalties take the integer tiers; half-integer ones route
  // every pair to the float kernel, with no batched lanes at all.
  for (const GapPenalties g : {m.default_gaps(), GapPenalties{10.5F, 0.5F}}) {
    const bool integral = g.open == std::floor(g.open);
    // Reference: the historical serial per-pair loop.
    util::SymmetricMatrix<double> want(seqs.size(), 0.0);
    for (std::size_t i = 0; i < seqs.size(); ++i)
      for (std::size_t j = 0; j < i; ++j) {
        const PairwiseAlignment aln =
            ref_align(seqs[i].codes(), seqs[j].codes(), m, g);
        want(i, j) = kimura_distance(
            fractional_identity(seqs[i].codes(), seqs[j].codes(), aln.ops));
      }

    for (unsigned threads : {1U, 2U, 5U}) {
      PairDistanceOptions opt;
      opt.threads = threads;
      PairDistanceStats stats;
      opt.stats = &stats;
      const auto got = alignment_distance_matrix(seqs, m, g, opt);
      for (std::size_t i = 0; i < seqs.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
          EXPECT_EQ(want(i, j), got(i, j))
              << i << "," << j << " threads=" << threads
              << " integral=" << integral;
      EXPECT_EQ(stats.pairs, seqs.size() * (seqs.size() - 1) / 2);
      if (integral) {
        EXPECT_GT(stats.batched_int8, 0u);
        EXPECT_GT(stats.ladder.int8_runs + stats.ladder.int16_runs, 0u)
            << "striped integer tiers never engaged";
      } else {
        EXPECT_EQ(stats.batched_int8, 0u);
        EXPECT_EQ(stats.ladder.int8_runs + stats.ladder.int16_runs, 0u);
        EXPECT_EQ(stats.ladder.float_runs, stats.pairs);
      }
    }
  }
}

TEST(DistanceMatrixAligned, SaturatedBatchLanesRetryThroughTheLadder) {
  // Identical ~90-residue proteins: every pair fits the inter-pair int8
  // kernel's length cap, but its self-score blows the int8 ceiling, so each
  // batched lane saturates and the pair is re-run through the per-pair
  // promotion ladder. Distances and visited alignments must still equal
  // the per-pair reference.
  util::Rng rng(0xCA);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.0F, 1.0F};
  const auto root = random_codes(rng, 90, 20);
  ASSERT_LE(root.size(), PairBatch(m, g).max_len());
  std::vector<Sequence> seqs;
  for (std::size_t s = 0; s < 10; ++s)
    seqs.emplace_back(util::indexed_name("s", s), root,
                      bio::AlphabetKind::AminoAcid);
  const PairwiseAlignment want = ref_align(root, root, m, g);
  const double want_d = kimura_distance(1.0);

  for (unsigned threads : {1U, 3U}) {
    PairDistanceOptions opt;
    opt.threads = threads;
    PairDistanceStats stats;
    opt.stats = &stats;
    std::size_t visited = 0;
    const auto got = alignment_distance_matrix(
        seqs, m, g, opt,
        [&](std::size_t, std::size_t, const PairAlignments& pair) {
          ++visited;
          expect_same(want, pair.global, "retried pair");
        });
    for (std::size_t i = 0; i < seqs.size(); ++i)
      for (std::size_t j = 0; j < i; ++j)
        EXPECT_EQ(want_d, got(i, j)) << i << "," << j;
    EXPECT_EQ(visited, stats.pairs);
    EXPECT_GT(stats.batch_retries, 0u) << "no batched lane saturated";
    EXPECT_EQ(stats.batched_int8 + stats.batch_retries, stats.pairs);
    // Each retried pair saturates int8 again and finishes on int16.
    EXPECT_EQ(stats.ladder.int16_runs, stats.batch_retries);
    EXPECT_EQ(stats.ladder.float_runs, 0u);
  }
}

TEST(DistanceMatrixAligned, VisitorOrderAndPairsPreserved) {
  util::Rng rng(0xC8);
  const auto seqs = random_family(rng, 9, 20, 70);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();

  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::vector<PairwiseAlignment> alns;
  PairDistanceOptions opt;
  opt.threads = 3;
  opt.with_local = true;
  (void)alignment_distance_matrix(
      seqs, m, g, opt,
      [&](std::size_t i, std::size_t j, const PairAlignments& pair) {
        order.emplace_back(i, j);
        alns.push_back(pair.global);
        EXPECT_FALSE(pair.local.ops.empty());
      });

  std::size_t p = 0;
  for (std::size_t i = 1; i < seqs.size(); ++i)
    for (std::size_t j = 0; j < i; ++j, ++p) {
      ASSERT_LT(p, order.size());
      EXPECT_EQ(order[p], std::make_pair(i, j));
      expect_same(ref_align(seqs[i].codes(), seqs[j].codes(), m, g), alns[p],
                  "visited pair");
    }
  EXPECT_EQ(p, order.size());
}

TEST(DistanceMatrixAligned, BandedPassKeepsBandedSemantics) {
  util::Rng rng(0xC9);
  const auto seqs = random_family(rng, 6, 40, 90);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();
  PairDistanceOptions opt;
  opt.band = 8;
  opt.threads = 2;
  const auto got = alignment_distance_matrix(seqs, m, g, opt);
  for (std::size_t i = 0; i < seqs.size(); ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const PairwiseAlignment aln = engine::reference::banded_global_align(
          seqs[i].codes(), seqs[j].codes(), m, g, 8);
      EXPECT_EQ(kimura_distance(fractional_identity(
                    seqs[i].codes(), seqs[j].codes(), aln.ops)),
                got(i, j));
    }
}

// ---- kimura saturation (shared guide-tree clamp) -------------------------------

TEST(KimuraSaturation, ClampIsConsistentAcrossDrivers) {
  // The transform itself: monotone, continuous into the clamp, never above
  // the cap, saturated exactly at the cap for identity 0.
  EXPECT_EQ(kimura_distance(1.0), 0.0);
  EXPECT_EQ(kimura_distance(0.0), kMaxGuideTreeDistance);
  EXPECT_EQ(kimura_distance(-0.5), kMaxGuideTreeDistance);  // clamped D
  double prev = kimura_distance(1.0);
  for (double id = 0.99; id > -0.01; id -= 0.01) {
    const double cur = kimura_distance(id);
    EXPECT_GE(cur, prev) << "identity " << id;
    EXPECT_LE(cur, kMaxGuideTreeDistance) << "identity " << id;
    prev = cur;
  }
  // Just-above-threshold identities must NOT clamp (continuity: the clamp
  // is a saturation, not a cliff).
  const double at_cap = std::exp(-kMaxGuideTreeDistance);
  // identity s.t. 1 - d - d^2/5 == at_cap, d = 1 - identity:
  const double d = (-1.0 + std::sqrt(1.0 + 0.8 * (1.0 - at_cap))) / 0.4;
  EXPECT_LT(kimura_distance(1.0 - d + 1e-6), kMaxGuideTreeDistance);
  EXPECT_EQ(kimura_distance(1.0 - d - 1e-6), kMaxGuideTreeDistance);

  // Driver consistency: a zero-identity pair saturates the alignment
  // driver at exactly the shared cap, and both matrix drivers respect it.
  const auto& m = SubstitutionMatrix::dna_default();
  const GapPenalties g = m.default_gaps();
  std::vector<Sequence> seqs;
  seqs.emplace_back("a", "ACACACACAC", bio::AlphabetKind::Dna);
  seqs.emplace_back("b", "GTGTGTGTGT", bio::AlphabetKind::Dna);
  const auto kim = alignment_distance_matrix(seqs, m, g);
  EXPECT_EQ(kim(1, 0), kMaxGuideTreeDistance);
  const auto sc = score_distance_matrix(seqs, m, g);
  EXPECT_GE(sc(1, 0), 0.0);
  EXPECT_LE(sc(1, 0), kMaxScoreDistance);
  static_assert(kMaxScoreDistance == kMaxGuideTreeDistance);
}

}  // namespace
}  // namespace salign::align
