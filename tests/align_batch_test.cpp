// Tests for the striped integer score tiers and the batched
// distance-matrix layer (src/align/engine/batch.hpp, align/distance.hpp):
//
//  * randomized differential suite — ScoreBatch's promotion ladder must
//    equal the retained reference kernel's score EXACTLY on every input,
//    including wildcard codes, non-integral gap penalties, and
//    open < extend; the inputs alone route pairs to int8, int16 and float,
//    and the suite asserts through the Stats counters that each ran;
//  * adversarial saturation/promotion — high-score pairs force int8->int16
//    at run time, huge-score pairs force int16->float, long sequences skip
//    int8 statically; the results stay exact either way;
//  * degenerate inputs (empty either side, single residue);
//  * workspace accounting — the batch holds O(alphabet * m) profile bytes,
//    never O(m * n);
//  * distance drivers — alignment_distance_matrix reproduces the
//    historical nested loops bit-identically for every thread count and
//    visitor combination; score_distance_matrix matches its per-pair
//    formula and is thread-count-invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "align/distance.hpp"
#include "align/engine/batch.hpp"
#include "align/engine/engine.hpp"
#include "bio/sequence.hpp"
#include "bio/substitution_matrix.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace salign::align {
namespace {

using bio::GapPenalties;
using bio::Sequence;
using bio::SubstitutionMatrix;
using engine::ScoreBatch;

std::vector<std::uint8_t> random_codes(util::Rng& rng, std::size_t len,
                                       int letters) {
  std::vector<std::uint8_t> v(len);
  for (auto& c : v)
    c = static_cast<std::uint8_t>(
        rng.below(static_cast<std::uint64_t>(letters)));
  return v;
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

// ---- tier differential ---------------------------------------------------------

TEST(ScoreBatchDifferential, AllTiersMatchReferenceExactly) {
  util::Rng rng(0xB1);
  const auto scen = scenarios();
  engine::LadderStats total;
  for (int trial = 0; trial < 60; ++trial) {
    const Scenario& sc = scen[trial % scen.size()];
    const std::size_t la = rng.below(200);
    const std::size_t lb = rng.below(200);
    const auto a = random_codes(rng, la, sc.letters);
    const auto b = random_codes(rng, lb, sc.letters);
    GapPenalties g;
    g.open = static_cast<float>(1 + rng.below(14));
    g.extend = static_cast<float>(1 + rng.below(4)) * 0.5F;  // incl. 0.5/1.5

    const float ref = (la == 0 && lb == 0)
                          ? 0.0F
                          : engine::reference::global_align(a, b, *sc.matrix,
                                                            g).score;
    ScoreBatch batch(a, *sc.matrix, g);
    EXPECT_EQ(ref, batch.score(b)) << "trial " << trial;
    total += batch.stats();
  }
  // Short pairs under integral penalties run int8, pairs past int8's
  // boundary rail int16, half-integer penalties float.
  EXPECT_GT(total.int8_runs, 0u);
  EXPECT_GT(total.int16_runs, 0u);
  EXPECT_GT(total.float_runs, 0u);
}

TEST(ScoreBatchDifferential, ReusedBatchScoresManyCounterparts) {
  util::Rng rng(0xB2);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{11.0F, 1.0F};
  const auto query = random_codes(rng, 120, 20);
  ScoreBatch batch(query, m, g);
  for (int i = 0; i < 24; ++i) {
    const auto other = random_codes(rng, rng.below(300), 20);
    const float ref =
        other.empty()
            ? -(g.open + g.extend * static_cast<float>(query.size() - 1))
            : engine::reference::global_align(query, other, m, g).score;
    EXPECT_EQ(ref, batch.score(other)) << "counterpart " << i;
  }
  const auto& st = batch.stats();
  EXPECT_GT(st.int8_runs + st.int16_runs + st.float_runs, 0u);
}

// ---- saturation / promotion ----------------------------------------------------

TEST(ScoreBatchPromotion, HighScorePairPromotesInt8ToInt16) {
  // An identical pair at int8-viable length: the self-score (~ L * 5.3 for
  // BLOSUM62) blows through the int8 ceiling at run time, the ladder
  // retries in int16, and the result is still exact.
  util::Rng rng(0xB3);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.0F, 1.0F};
  const auto a = random_codes(rng, 80, 20);
  ScoreBatch batch(a, m, g);
  const float ref = engine::reference::global_align(a, a, m, g).score;
  EXPECT_EQ(ref, batch.score(a));
  EXPECT_GE(batch.stats().int8_runs, 1u) << "int8 must have been attempted";
  EXPECT_GE(batch.stats().promotions, 1u) << "and must have saturated";
  EXPECT_GE(batch.stats().int16_runs, 1u);
  EXPECT_EQ(batch.stats().float_runs, 0u);
}

TEST(ScoreBatchPromotion, HugeScorePairPromotesInt16ToFloat) {
  // Identical DNA sequences of length 7000 score +35000 — beyond int16 —
  // while the boundary gap run still fits int16 (and is far past int8's),
  // so the int16 tier runs, detects saturation, and falls through to the
  // float kernel.
  util::Rng rng(0xB4);
  const auto& m = SubstitutionMatrix::dna_default();
  const GapPenalties g{11.0F, 1.0F};
  const auto a = random_codes(rng, 7000, 4);
  ScoreBatch batch(a, m, g);
  const float got = batch.score(a);
  EXPECT_EQ(got, 5.0F * 7000.0F);  // all-match diagonal
  EXPECT_EQ(batch.stats().int8_runs, 0u);
  EXPECT_GE(batch.stats().int16_runs, 1u);
  EXPECT_GE(batch.stats().promotions, 1u);
  EXPECT_GE(batch.stats().float_runs, 1u);
}

TEST(ScoreBatchPromotion, LongSequencesSkipInt8Statically) {
  // At length 300 the boundary gap run alone exceeds the int8 rails: the
  // ladder must not even attempt the tier.
  util::Rng rng(0xB5);
  const auto& m = SubstitutionMatrix::blosum62();
  const auto a = random_codes(rng, 300, 20);
  const auto b = random_codes(rng, 300, 20);
  ScoreBatch batch(a, m, {11.0F, 1.0F});
  EXPECT_EQ(engine::reference::global_align(a, b, m, {11.0F, 1.0F}).score,
            batch.score(b));
  EXPECT_EQ(batch.stats().int8_runs, 0u);
  EXPECT_GE(batch.stats().int16_runs, 1u);
}

TEST(ScoreBatchPromotion, NonIntegralGapsUseFloatTier) {
  util::Rng rng(0xB6);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{10.5F, 0.5F};
  const auto a = random_codes(rng, 60, 20);
  const auto b = random_codes(rng, 60, 20);
  ScoreBatch batch(a, m, g);
  EXPECT_EQ(engine::reference::global_align(a, b, m, g).score,
            batch.score(b));
  EXPECT_EQ(batch.stats().int8_runs, 0u);
  EXPECT_EQ(batch.stats().int16_runs, 0u);
  EXPECT_GE(batch.stats().float_runs, 1u);
}

// ---- degenerate inputs ---------------------------------------------------------

TEST(ScoreBatchEdge, EmptyAndTinyInputs) {
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g{11.0F, 1.0F};
  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> one{3};
  const std::vector<std::uint8_t> three{1, 2, 3};

  ScoreBatch be(empty, m, g);
  EXPECT_EQ(be.score(empty), 0.0F);
  EXPECT_FLOAT_EQ(be.score(three), -13.0F);
  ScoreBatch bt(three, m, g);
  EXPECT_FLOAT_EQ(bt.score(empty), -13.0F);
  ScoreBatch b1(one, m, g);
  EXPECT_EQ(engine::reference::global_align(one, three, m, g).score,
            b1.score(three));
}

// ---- workspace accounting ------------------------------------------------------

TEST(ScoreBatchMemory, WorkspaceIsLinearInQueryLength) {
  util::Rng rng(0xB7);
  const auto& m = SubstitutionMatrix::dna_default();
  const std::size_t len = 4000;
  const auto a = random_codes(rng, len, 4);
  const auto b = random_codes(rng, len, 4);
  ScoreBatch batch(a, m, {11.0F, 1.0F});
  (void)batch.score(b);
  // Must include the striped int16 profile (alphabet * m int16 slots >
  // 5 * len bytes for DNA) — pins that the new buffers are accounted —
  // while staying comfortably linear, nowhere near an O(m*n) table.
  EXPECT_GT(batch.workspace_bytes(), 5 * len);
  EXPECT_LT(batch.workspace_bytes(), 512 * (2 * len + 64));
}

// ---- distance drivers ----------------------------------------------------------

TEST(PairEnumeration, MatchesNestedLoopOrder) {
  std::size_t p = 0;
  for (std::size_t i = 1; i < 24; ++i)
    for (std::size_t j = 0; j < i; ++j, ++p) {
      const auto [pi, pj] = pair_from_index(p);
      ASSERT_EQ(pi, i);
      ASSERT_EQ(pj, j);
    }
}

std::vector<Sequence> random_seqs(util::Rng& rng, std::size_t n,
                                  std::size_t max_len) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < n; ++i) {
    const auto codes = random_codes(rng, 1 + rng.below(max_len), 20);
    seqs.emplace_back(util::indexed_name("s", i), codes,
                      bio::AlphabetKind::AminoAcid);
  }
  return seqs;
}

TEST(AlignmentDistanceMatrix, MatchesHistoricalLoopForEveryThreadCount) {
  util::Rng rng(0xB8);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();
  const auto seqs = random_seqs(rng, 9, 60);

  // The historical ClustalW stage-1 nested loop on the reference kernel.
  util::SymmetricMatrix<double> want(seqs.size(), 0.0);
  for (std::size_t i = 0; i < seqs.size(); ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const PairwiseAlignment pw = engine::reference::global_align(
          seqs[i].codes(), seqs[j].codes(), m, g);
      want(i, j) = kimura_distance(
          fractional_identity(seqs[i].codes(), seqs[j].codes(), pw.ops));
    }

  for (unsigned threads : {1U, 3U, 8U}) {
    PairDistanceOptions opt;
    opt.threads = threads;
    const auto got = alignment_distance_matrix(seqs, m, g, opt);
    for (std::size_t i = 0; i < seqs.size(); ++i)
      for (std::size_t j = 0; j <= i; ++j)
        EXPECT_EQ(want(i, j), got(i, j))
            << "threads=" << threads << " (" << i << "," << j << ")";
  }
}

TEST(AlignmentDistanceMatrix, BandedOptionMatchesBandedKernel) {
  util::Rng rng(0xB9);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();
  const auto seqs = random_seqs(rng, 6, 80);
  PairDistanceOptions opt;
  opt.band = 16;
  opt.threads = 2;
  const auto got = alignment_distance_matrix(seqs, m, g, opt);
  for (std::size_t i = 1; i < seqs.size(); ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const PairwiseAlignment pw = engine::banded_global_align(
          seqs[i].codes(), seqs[j].codes(), m, g, 16);
      EXPECT_EQ(kimura_distance(fractional_identity(
                    seqs[i].codes(), seqs[j].codes(), pw.ops)),
                got(i, j));
    }
}

TEST(AlignmentDistanceMatrix, VisitorRunsSeriallyInPairOrder) {
  util::Rng rng(0xBA);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();
  const auto seqs = random_seqs(rng, 8, 40);

  PairDistanceOptions opt;
  opt.threads = 4;
  opt.with_local = true;
  std::vector<std::pair<std::size_t, std::size_t>> visited;
  const auto got = alignment_distance_matrix(
      seqs, m, g, opt,
      [&](std::size_t i, std::size_t j, const PairAlignments& pair) {
        visited.emplace_back(i, j);
        // Spot-check the payload against direct kernel calls.
        const PairwiseAlignment pw = engine::reference::global_align(
            seqs[i].codes(), seqs[j].codes(), m, g);
        EXPECT_EQ(pw.score, pair.global.score);
        EXPECT_EQ(pw.ops, pair.global.ops);
        const LocalAlignment loc =
            engine::local_align(seqs[i].codes(), seqs[j].codes(), m, g);
        EXPECT_EQ(loc.score, pair.local.score);
        EXPECT_EQ(loc.ops, pair.local.ops);
      });

  const std::size_t n = seqs.size();
  ASSERT_EQ(visited.size(), n * (n - 1) / 2);
  for (std::size_t p = 0; p < visited.size(); ++p)
    EXPECT_EQ(visited[p], pair_from_index(p)) << "visit " << p;

  // Visitor mode and plain mode agree on the distances.
  PairDistanceOptions plain;
  const auto direct = alignment_distance_matrix(seqs, m, g, plain);
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_EQ(direct(i, j), got(i, j));
}

TEST(ScoreDistanceMatrix, MatchesPerPairFormulaAndThreadInvariant) {
  util::Rng rng(0xBB);
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();
  const auto seqs = random_seqs(rng, 10, 90);
  const std::size_t n = seqs.size();

  const auto base = score_distance_matrix(seqs, m, g);
  for (unsigned threads : {2U, 5U}) {
    ScoreDistanceOptions opt;
    opt.threads = threads;
    const auto got = score_distance_matrix(seqs, m, g, opt);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        EXPECT_EQ(base(i, j), got(i, j)) << "threads=" << threads;
  }

  // Per-pair formula against reference scores.
  const auto ref_score = [&](std::size_t i, std::size_t j) {
    return engine::reference::global_align(seqs[i].codes(), seqs[j].codes(),
                                           m, g)
        .score;
  };
  std::vector<float> self(n);
  for (std::size_t i = 0; i < n; ++i) self[i] = ref_score(i, i);
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const float sij = ref_score(i, j);
      const double denom = std::min(self[i], self[j]);
      const double want =
          denom <= 0.0 ? kMaxScoreDistance
                       : std::clamp(1.0 - static_cast<double>(sij) / denom,
                                    0.0, kMaxScoreDistance);
      EXPECT_EQ(want, base(i, j)) << "(" << i << "," << j << ")";
    }

  // Identical sequences are at distance 0; diagonal stays 0.
  std::vector<Sequence> twins{seqs[0], seqs[0]};
  twins[1] = Sequence("twin", std::vector<std::uint8_t>(
                                  seqs[0].codes().begin(),
                                  seqs[0].codes().end()),
                      bio::AlphabetKind::AminoAcid);
  const auto d2 = score_distance_matrix(twins, m, g);
  EXPECT_EQ(d2(1, 0), 0.0);
  EXPECT_EQ(d2(0, 0), 0.0);
}

TEST(ScoreDistanceMatrix, DegenerateInputs) {
  const auto& m = SubstitutionMatrix::blosum62();
  const GapPenalties g = m.default_gaps();
  EXPECT_EQ(score_distance_matrix({}, m, g).size(), 0u);

  std::vector<Sequence> one{Sequence("a", "ACDEF")};
  EXPECT_EQ(score_distance_matrix(one, m, g).size(), 1u);

  // An empty sequence has self-score 0 -> maximally distant from everything.
  std::vector<Sequence> with_empty{Sequence("a", "ACDEF"),
                                   Sequence("b", "")};
  const auto d = score_distance_matrix(with_empty, m, g);
  EXPECT_EQ(d(1, 0), kMaxScoreDistance);
}

}  // namespace
}  // namespace salign::align
