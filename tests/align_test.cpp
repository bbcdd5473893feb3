#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "align/distance.hpp"
#include "align/engine/batch.hpp"
#include "align/engine/engine.hpp"
#include "align/pairwise.hpp"
#include "bio/sequence.hpp"
#include "util/rng.hpp"

namespace salign::align {
namespace {

using bio::GapPenalties;
using bio::Sequence;
using bio::SubstitutionMatrix;
using engine::banded_global_align;
using engine::local_align;

const SubstitutionMatrix& B62() { return SubstitutionMatrix::blosum62(); }

/// One global alignment through the engine's promotion ladder.
PairwiseAlignment ladder_align(std::span<const std::uint8_t> a,
                               std::span<const std::uint8_t> b,
                               const SubstitutionMatrix& m, GapPenalties g) {
  return engine::AlignBatch(a, m, g).align(b);
}

std::vector<std::uint8_t> codes(const std::string& text) {
  const Sequence s("t", text);
  return {s.codes().begin(), s.codes().end()};
}

/// Exhaustive-oracle global aligner (plain recursion with memo over
/// (i, j, state)) for tiny inputs; validates the production DP.
float brute_force_global(const std::vector<std::uint8_t>& a,
                         const std::vector<std::uint8_t>& b,
                         const SubstitutionMatrix& m, GapPenalties g) {
  // state: 0 none/match, 1 in gapA, 2 in gapB
  const std::size_t A = a.size();
  const std::size_t B = b.size();
  std::vector<float> memo((A + 1) * (B + 1) * 3, NAN);
  auto idx = [&](std::size_t i, std::size_t j, int s) {
    return (i * (B + 1) + j) * 3 + static_cast<std::size_t>(s);
  };
  auto rec = [&](auto&& self, std::size_t i, std::size_t j, int s) -> float {
    if (i == A && j == B) return 0.0F;
    float& cell = memo[idx(i, j, s)];
    if (!std::isnan(cell)) return cell;
    float best = -1e30F;
    if (i < A && j < B)
      best = std::max(best,
                      m.score(a[i], b[j]) + self(self, i + 1, j + 1, 0));
    if (j < B)
      best = std::max(best, -(s == 1 ? g.extend : g.open) +
                                self(self, i, j + 1, 1));
    if (i < A)
      best = std::max(best, -(s == 2 ? g.extend : g.open) +
                                self(self, i + 1, j, 2));
    cell = best;
    return best;
  };
  return rec(rec, 0, 0, 0);
}

// ---- path helpers ---------------------------------------------------------------

TEST(PairwisePath, ConsumedCounts) {
  PairwiseAlignment p;
  p.ops = {EditOp::Match, EditOp::GapInA, EditOp::GapInB, EditOp::Match};
  EXPECT_EQ(p.a_consumed(), 3u);
  EXPECT_EQ(p.b_consumed(), 3u);
  EXPECT_EQ(p.columns(), 4u);
}

TEST(PairwisePath, ValidateGlobalPath) {
  std::vector<EditOp> ops{EditOp::Match, EditOp::GapInB};
  EXPECT_NO_THROW(validate_global_path(ops, 2, 1));
  EXPECT_THROW(validate_global_path(ops, 1, 1), std::invalid_argument);
}

TEST(PairwisePath, RenderPath) {
  const auto a = codes("AC");
  const auto b = codes("AGC");
  std::vector<EditOp> ops{EditOp::Match, EditOp::GapInA, EditOp::Match};
  const auto [ra, rb] =
      render_path(a, b, ops, bio::Alphabet::amino_acid());
  EXPECT_EQ(ra, "A-C");
  EXPECT_EQ(rb, "AGC");
}

TEST(PairwisePath, ScorePathAffine) {
  const auto a = codes("AA");
  const auto b = codes("A");
  // A A
  // A -
  std::vector<EditOp> ops{EditOp::Match, EditOp::GapInB};
  const GapPenalties g{5.0F, 1.0F};
  const float s = score_path(a, b, ops, B62(), g);
  EXPECT_FLOAT_EQ(s, 4.0F - 5.0F);
}

TEST(PairwisePath, ScorePathGapRuns) {
  const auto a = codes("AAAA");
  const auto b = codes("A");
  std::vector<EditOp> ops{EditOp::Match, EditOp::GapInB, EditOp::GapInB,
                          EditOp::GapInB};
  const GapPenalties g{5.0F, 1.0F};
  EXPECT_FLOAT_EQ(score_path(a, b, ops, B62(), g), 4.0F - 5.0F - 1.0F - 1.0F);
}

TEST(PairwisePath, ScorePathOverrunThrows) {
  const auto a = codes("A");
  const auto b = codes("A");
  std::vector<EditOp> ops{EditOp::Match, EditOp::Match};
  EXPECT_THROW((void)score_path(a, b, ops, B62(), {}), std::invalid_argument);
}

// ---- global alignment --------------------------------------------------------------

TEST(GlobalAlign, IdenticalSequences) {
  const auto a = codes("ACDEFGHIKL");
  const PairwiseAlignment r = ladder_align(a, a, B62(), {});
  EXPECT_EQ(r.columns(), a.size());
  for (EditOp op : r.ops) EXPECT_EQ(op, EditOp::Match);
  float expect = 0.0F;
  for (std::uint8_t c : a) expect += B62().score(c, c);
  EXPECT_FLOAT_EQ(r.score, expect);
}

TEST(GlobalAlign, EmptyInputs) {
  const auto a = codes("ACD");
  const auto empty = codes("");
  const GapPenalties g{11.0F, 1.0F};
  const PairwiseAlignment r1 = ladder_align(a, empty, B62(), g);
  EXPECT_EQ(r1.a_consumed(), 3u);
  EXPECT_EQ(r1.b_consumed(), 0u);
  EXPECT_FLOAT_EQ(r1.score, -13.0F);  // open + 2 extends
  const PairwiseAlignment r2 = ladder_align(empty, empty, B62(), g);
  EXPECT_TRUE(r2.ops.empty());
  EXPECT_FLOAT_EQ(r2.score, 0.0F);
}

TEST(GlobalAlign, KnownSmallCase) {
  // A single insertion: W W F  vs  W F. Gap must land opposite F/W boundary.
  const auto a = codes("WWF");
  const auto b = codes("WF");
  const GapPenalties g{5.0F, 1.0F};
  const PairwiseAlignment r = ladder_align(a, b, B62(), g);
  validate_global_path(r.ops, a.size(), b.size());
  EXPECT_FLOAT_EQ(r.score, 11.0F + 6.0F - 5.0F);
}

TEST(GlobalAlign, ScoreMatchesRecomputedPathScore) {
  util::Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> a(10 + rng.below(30));
    std::vector<std::uint8_t> b(10 + rng.below(30));
    for (auto& c : a) c = static_cast<std::uint8_t>(rng.below(20));
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.below(20));
    const PairwiseAlignment r = ladder_align(a, b, B62(), {});
    validate_global_path(r.ops, a.size(), b.size());
    EXPECT_NEAR(r.score, score_path(a, b, r.ops, B62(), {}), 1e-3)
        << "trial " << trial;
  }
}

TEST(GlobalAlign, MatchesBruteForceOracle) {
  util::Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> a(1 + rng.below(7));
    std::vector<std::uint8_t> b(1 + rng.below(7));
    for (auto& c : a) c = static_cast<std::uint8_t>(rng.below(20));
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.below(20));
    const GapPenalties g{7.0F, 2.0F};
    const PairwiseAlignment r = ladder_align(a, b, B62(), g);
    EXPECT_NEAR(r.score, brute_force_global(a, b, B62(), g), 1e-3)
        << "trial " << trial;
  }
}

TEST(GlobalAlign, SymmetricScore) {
  const auto a = codes("MKVLATTWY");
  const auto b = codes("MKVATTWWY");
  const float s1 = ladder_align(a, b, B62(), {}).score;
  const float s2 = ladder_align(b, a, B62(), {}).score;
  EXPECT_FLOAT_EQ(s1, s2);
}

// ---- banded alignment --------------------------------------------------------------

class BandedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BandedTest, WideBandMatchesExact) {
  util::Rng rng(33 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint8_t> a(20 + rng.below(20));
    std::vector<std::uint8_t> b(20 + rng.below(20));
    for (auto& c : a) c = static_cast<std::uint8_t>(rng.below(20));
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.below(20));
    const PairwiseAlignment exact = ladder_align(a, b, B62(), {});
    const PairwiseAlignment banded =
        banded_global_align(a, b, B62(), {}, 64);
    EXPECT_FLOAT_EQ(banded.score, exact.score) << "trial " << trial;
    validate_global_path(banded.ops, a.size(), b.size());
  }
}

TEST_P(BandedTest, NarrowBandStillValidPath) {
  const std::size_t band = GetParam();
  util::Rng rng(44);
  std::vector<std::uint8_t> a(60);
  std::vector<std::uint8_t> b(50);
  for (auto& c : a) c = static_cast<std::uint8_t>(rng.below(20));
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.below(20));
  const PairwiseAlignment r = banded_global_align(a, b, B62(), {}, band);
  validate_global_path(r.ops, a.size(), b.size());
  // Banded is a restriction: never better than exact.
  const PairwiseAlignment exact = ladder_align(a, b, B62(), {});
  EXPECT_LE(r.score, exact.score + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Bands, BandedTest, ::testing::Values(1, 2, 4, 8, 16));

TEST(BandedAlign, SimilarSequencesExactWithSmallBand) {
  // One substitution apart: the optimal path hugs the diagonal, so even a
  // tiny band finds the true optimum.
  const auto a = codes("MKVLATTWYGGSDERKLAAC");
  auto bc = codes("MKVLATTWYGGSDERKLAAC");
  bc[7] = codes("P")[0];
  const float exact = ladder_align(a, bc, B62(), {}).score;
  const float banded = banded_global_align(a, bc, B62(), {}, 2).score;
  EXPECT_FLOAT_EQ(banded, exact);
}

TEST(BandedAlign, EmptyInput) {
  const auto a = codes("ACD");
  const PairwiseAlignment r =
      banded_global_align(a, {}, B62(), GapPenalties{11.0F, 1.0F}, 4);
  EXPECT_EQ(r.a_consumed(), 3u);
  EXPECT_FLOAT_EQ(r.score, -13.0F);
}

// ---- local alignment ----------------------------------------------------------------

TEST(LocalAlign, FindsEmbeddedMotif) {
  // Shared motif WWWW embedded in unrelated context.
  const auto a = codes("AAAAWWWWCCCC");
  const auto b = codes("DDWWWWEE");
  const LocalAlignment r = local_align(a, b, B62(), {});
  EXPECT_EQ(r.a_begin, 4u);
  EXPECT_EQ(r.b_begin, 2u);
  EXPECT_EQ(r.columns(), 4u);
  EXPECT_FLOAT_EQ(r.score, 4 * 11.0F);
}

TEST(LocalAlign, NoPositiveRegionGivesEmpty) {
  const auto a = codes("AAAA");
  const auto b = codes("WWWW");  // A vs W scores -3
  const LocalAlignment r = local_align(a, b, B62(), {});
  EXPECT_TRUE(r.ops.empty());
  EXPECT_FLOAT_EQ(r.score, 0.0F);
}

TEST(LocalAlign, ScoreNeverNegative) {
  util::Rng rng(55);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<std::uint8_t> a(5 + rng.below(40));
    std::vector<std::uint8_t> b(5 + rng.below(40));
    for (auto& c : a) c = static_cast<std::uint8_t>(rng.below(20));
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.below(20));
    EXPECT_GE(local_align(a, b, B62(), {}).score, 0.0F);
  }
}

TEST(LocalAlign, LocalAtLeastGlobalScore) {
  util::Rng rng(56);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<std::uint8_t> a(10 + rng.below(20));
    std::vector<std::uint8_t> b(10 + rng.below(20));
    for (auto& c : a) c = static_cast<std::uint8_t>(rng.below(20));
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.below(20));
    EXPECT_GE(local_align(a, b, B62(), {}).score,
              ladder_align(a, b, B62(), {}).score - 1e-3);
  }
}

TEST(LocalAlign, EmptyInputsGiveEmpty) {
  const auto a = codes("ACD");
  const LocalAlignment r = local_align(a, {}, B62(), {});
  EXPECT_TRUE(r.ops.empty());
}

// ---- distances -----------------------------------------------------------------------

TEST(Distance, FractionalIdentityOfIdentical) {
  const auto a = codes("ACDEF");
  std::vector<EditOp> ops(5, EditOp::Match);
  EXPECT_DOUBLE_EQ(fractional_identity(a, a, ops), 1.0);
}

TEST(Distance, FractionalIdentityCountsMatchColumnsOnly) {
  const auto a = codes("AC");
  const auto b = codes("AWC");
  // A - C
  // A W C
  std::vector<EditOp> ops{EditOp::Match, EditOp::GapInA, EditOp::Match};
  EXPECT_DOUBLE_EQ(fractional_identity(a, b, ops), 1.0);
}

TEST(Distance, KimuraProperties) {
  EXPECT_DOUBLE_EQ(kimura_distance(1.0), 0.0);
  EXPECT_GT(kimura_distance(0.8), kimura_distance(0.9));
  // Saturates (clamped) at very low identity instead of blowing up.
  EXPECT_LE(kimura_distance(0.0), 5.0 + 1e-12);
  EXPECT_GT(kimura_distance(0.05), 1.0);
}

TEST(Distance, AlignmentDistanceOrdersByRelatedness) {
  const auto a = codes("MKVLATTWYGGSDERKLAAC");
  auto close_seq = codes("MKVLATTWYGGSDERKLAAC");
  close_seq[3] = codes("G")[0];
  const auto far = codes("PPNNQQRRSSTTVVYYHHMM");
  const std::vector<Sequence> seqs{
      Sequence("a", a, bio::AlphabetKind::AminoAcid),
      Sequence("close", close_seq, bio::AlphabetKind::AminoAcid),
      Sequence("far", far, bio::AlphabetKind::AminoAcid)};
  const auto d = alignment_distance_matrix(seqs, B62(), {});
  const double d_close = d(1, 0);
  const double d_far = d(2, 0);
  EXPECT_LT(d_close, d_far);
  EXPECT_GE(d_close, 0.0);
}

}  // namespace
}  // namespace salign::align
