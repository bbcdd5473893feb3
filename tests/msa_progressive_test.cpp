#include <gtest/gtest.h>

#include <vector>

#include "kmer/kmer_rank.hpp"
#include "msa/consensus.hpp"
#include "msa/guide_tree.hpp"
#include "msa/progressive.hpp"
#include "msa/refinement.hpp"
#include "msa/scoring.hpp"
#include "util/string_util.hpp"
#include "workload/evolver.hpp"
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

GuideTree tree_for(std::span<const Sequence> seqs) {
  return GuideTree::upgma(kmer::distance_matrix(seqs, {}));
}

// ---- progressive_align -----------------------------------------------------------

TEST(Progressive, SingleSequence) {
  const auto seqs = family(1, 30, 300, 1);
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.degapped(0), seqs[0]);
}

TEST(Progressive, AllRowsEqualLength) {
  const auto seqs = family(12, 50, 600, 2);
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_EQ(a.num_rows(), 12u);
  a.validate();
  EXPECT_GE(a.num_cols(), 50u);
}

TEST(Progressive, DegapRestoresEveryInput) {
  const auto seqs = family(10, 40, 700, 3);
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  // Row i carries input sequence i.
  ASSERT_EQ(a.num_rows(), seqs.size());
  for (std::size_t r = 0; r < a.num_rows(); ++r) EXPECT_EQ(a.degapped(r), seqs[r]);
}

TEST(MergeAlongTree, RootIsInLeafOrderWithInputIndices) {
  const auto seqs = family(9, 30, 600, 12);
  const GuideTree t = tree_for(seqs);
  int merges = 0;
  const TreeAlignment root = merge_along_tree(
      seqs, t, 1,
      [&](const Alignment& left, std::span<const std::size_t> left_rows,
          const Alignment& right, std::span<const std::size_t> right_rows) {
        ++merges;
        EXPECT_EQ(left.num_rows(), left_rows.size());
        EXPECT_EQ(right.num_rows(), right_rows.size());
        for (std::size_t r = 0; r < left.num_rows(); ++r)
          EXPECT_EQ(left.row(r).id, seqs[left_rows[r]].id());
        // Left columns first, then right: a valid path for any children.
        std::vector<align::EditOp> ops(left.num_cols(), align::EditOp::GapInB);
        ops.insert(ops.end(), right.num_cols(), align::EditOp::GapInA);
        return ops;
      });
  EXPECT_EQ(merges, 8);
  // Postorder visits the leaves left to right.
  std::vector<std::size_t> leaf_order;
  for (int id : t.postorder())
    if (t.is_leaf(static_cast<std::size_t>(id)))
      leaf_order.push_back(static_cast<std::size_t>(
          t.node(static_cast<std::size_t>(id)).leaf_index));
  EXPECT_EQ(root.rows, leaf_order);
  for (std::size_t r = 0; r < root.rows.size(); ++r)
    EXPECT_EQ(root.aln.degapped(r), seqs[root.rows[r]]);
  const Alignment ordered = root.in_input_order();
  for (std::size_t r = 0; r < seqs.size(); ++r)
    EXPECT_EQ(ordered.degapped(r), seqs[r]);
}

TEST(Progressive, IdenticalSequencesAlignWithoutGaps) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < 5; ++i)
    seqs.emplace_back(util::indexed_name("s", i), "MKVLATTWYGGSDERK");
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_EQ(a.num_cols(), 16u);
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    EXPECT_EQ(a.residue_count(r), 16u);
}

TEST(Progressive, MismatchedTreeThrows) {
  const auto seqs = family(5, 30, 300, 4);
  const auto small = family(3, 30, 300, 5);
  EXPECT_THROW(
      (void)progressive_align(seqs, tree_for(small), B62()),
      std::invalid_argument);
}

TEST(Progressive, WeightsAreAccepted) {
  const auto seqs = family(6, 40, 500, 6);
  const GuideTree t = tree_for(seqs);
  ProgressiveOptions po;
  po.weights = t.leaf_weights();
  const Alignment a = progressive_align(seqs, t, B62(), po);
  a.validate();
  EXPECT_EQ(a.num_rows(), 6u);
}

TEST(Progressive, BandProviderIsCalled) {
  const auto seqs = family(4, 40, 300, 7);
  ProgressiveOptions po;
  int calls = 0;
  po.band_provider = [&calls](const Alignment&, const Alignment&) {
    ++calls;
    return std::size_t{0};
  };
  (void)progressive_align(seqs, tree_for(seqs), B62(), po);
  EXPECT_EQ(calls, 3);  // n-1 merges
}

// ---- consensus ---------------------------------------------------------------------

TEST(Consensus, MajorityResidues) {
  const Alignment a = Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{
          {"a", "AC"}, {"b", "AC"}, {"c", "AD"}});
  const Sequence c = consensus_sequence(a, "anc");
  EXPECT_EQ(c.text(), "AC");
  EXPECT_EQ(c.id(), "anc");
}

TEST(Consensus, GappyColumnsDropped) {
  const Alignment a = Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{
          {"a", "A-C"}, {"b", "A-C"}, {"c", "AWC"}});
  const Sequence c = consensus_sequence(a, "anc");
  EXPECT_EQ(c.text(), "AC");  // middle column is 2/3 gaps
}

TEST(Consensus, ThresholdConfigurable) {
  const Alignment a = Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{
          {"a", "A-"}, {"b", "AW"}});
  ConsensusOptions keep_all;
  keep_all.max_gap_fraction = 0.6;
  EXPECT_EQ(consensus_sequence(a, "anc", keep_all).text(), "AW");
  ConsensusOptions strict;
  strict.max_gap_fraction = 0.3;
  EXPECT_EQ(consensus_sequence(a, "anc", strict).text(), "A");
}

TEST(Consensus, TieBreaksTowardLowerCode) {
  // Two A's vs two C's: A (code 0) wins deterministically.
  const Alignment a = Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{
          {"a", "A"}, {"b", "A"}, {"c", "C"}, {"d", "C"}});
  EXPECT_EQ(consensus_sequence(a, "anc").text(), "A");
}

TEST(Consensus, EmptyAlignmentThrows) {
  EXPECT_THROW((void)consensus_sequence(Alignment{}, "anc"),
               std::invalid_argument);
}

TEST(Consensus, ConsensusOfIdenticalRowsIsTheSequence) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < 4; ++i)
    seqs.emplace_back(util::indexed_name("s", i), "MKWVLT");
  const Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_EQ(consensus_sequence(a, "anc").text(), "MKWVLT");
}

// ---- refinement ------------------------------------------------------------------

TEST(Refine, NeverDegradesObjective) {
  const auto seqs = family(8, 40, 800, 8);
  const GuideTree t = tree_for(seqs);
  Alignment a = progressive_align(seqs, t, B62());
  const double before = sp_score(a, B62(), B62().default_gaps());

  RefineOptions ro;
  ro.passes = 2;
  ro.gaps = B62().default_gaps();
  refine(a, t, B62(), ro);
  a.validate();
  const double after = sp_score(a, B62(), B62().default_gaps());
  // The PSP objective is not identical to SP, but refinement should not
  // collapse the alignment; allow slack but catch catastrophic regressions.
  EXPECT_GT(after, before - std::abs(before) * 0.2 - 50.0);
  // Degap invariant survives refinement.
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    const Sequence d = a.degapped(r);
    bool found = false;
    for (const auto& s : seqs)
      if (s == d) found = true;
    EXPECT_TRUE(found);
  }
}

TEST(Refine, ReportsAcceptedCount) {
  const auto seqs = family(6, 30, 900, 9);
  const GuideTree t = tree_for(seqs);
  Alignment a = progressive_align(seqs, t, B62());
  RefineOptions ro;
  ro.passes = 1;
  const std::size_t accepted = refine(a, t, B62(), ro);
  // Progressive output is already PSP-locally-optimal at the root edge, so
  // few acceptances are expected — just require the call to be well-formed.
  EXPECT_LE(accepted, 2 * seqs.size());
}

TEST(Refine, TwoRowAlignmentIsStable) {
  const auto seqs = family(2, 30, 400, 10);
  const GuideTree t = tree_for(seqs);
  Alignment a = progressive_align(seqs, t, B62());
  const std::string before = a.row_text(0) + "/" + a.row_text(1);
  RefineOptions ro;
  ro.passes = 3;
  refine(a, t, B62(), ro);
  // A 2-row alignment re-aligned by the same objective must stay optimal.
  EXPECT_EQ(a.row_text(0) + "/" + a.row_text(1), before);
}

TEST(Refine, LeafCountMismatchThrows) {
  const auto seqs = family(3, 20, 400, 11);
  const auto fewer = family(2, 20, 400, 11);
  Alignment a = progressive_align(seqs, tree_for(seqs), B62());
  EXPECT_THROW(refine(a, tree_for(fewer), B62(), {}), std::invalid_argument);
}

}  // namespace
}  // namespace salign::msa
