#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "align/distance.hpp"
#include "msa/clustalw_like.hpp"
#include "msa/mafft_like.hpp"
#include "msa/muscle_like.hpp"
#include "msa/probcons_like.hpp"
#include "msa/scoring.hpp"
#include "msa/tcoffee_like.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "workload/evolver.hpp"
#include "workload/rose.hpp"

namespace salign::msa {
namespace {

using bio::Sequence;

std::vector<Sequence> family(std::size_t n, std::size_t len, double rel,
                             std::uint64_t seed) {
  return workload::rose_sequences(
      {.num_sequences = n, .average_length = len, .relatedness = rel,
       .seed = seed});
}

std::vector<std::shared_ptr<const MsaAlgorithm>> all_aligners() {
  MafftOptions nw;
  nw.use_fft = false;
  nw.refine_passes = 1;
  MafftOptions fft;
  fft.use_fft = true;
  fft.refine_passes = 1;
  MuscleOptions refined;
  refined.refine_passes = 1;
  return {
      std::make_shared<MuscleAligner>(),
      std::make_shared<MuscleAligner>(refined),
      std::make_shared<ClustalWAligner>(),
      std::make_shared<TCoffeeAligner>(),
      std::make_shared<MafftAligner>(nw),
      std::make_shared<MafftAligner>(fft),
      std::make_shared<ProbConsAligner>(),
  };
}

// ---- shared contract, parameterized over every aligner -------------------------

class AlignerContractTest
    : public ::testing::TestWithParam<std::shared_ptr<const MsaAlgorithm>> {};

TEST_P(AlignerContractTest, SingleSequencePassesThrough) {
  const auto seqs = family(1, 40, 300, 1);
  const Alignment a = GetParam()->align(seqs);
  ASSERT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.degapped(0), seqs[0]);
}

TEST_P(AlignerContractTest, RowsDegapToInputsInInputOrder) {
  const auto seqs = family(9, 45, 600, 2);
  const Alignment a = GetParam()->align(seqs);
  ASSERT_EQ(a.num_rows(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]) << GetParam()->name() << " row " << i;
}

TEST_P(AlignerContractTest, ValidatesAndHasEqualRowLengths) {
  const auto seqs = family(7, 35, 800, 3);
  const Alignment a = GetParam()->align(seqs);
  EXPECT_NO_THROW(a.validate());
  std::size_t max_len = 0;
  for (const auto& s : seqs) max_len = std::max(max_len, s.size());
  EXPECT_GE(a.num_cols(), max_len);
}

TEST_P(AlignerContractTest, DeterministicAcrossRuns) {
  const auto seqs = family(6, 30, 500, 4);
  const Alignment a = GetParam()->align(seqs);
  const Alignment b = GetParam()->align(seqs);
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    EXPECT_EQ(a.row_text(r), b.row_text(r));
}

TEST_P(AlignerContractTest, IdenticalSequencesGetGaplessAlignment) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < 5; ++i)
    seqs.emplace_back(util::indexed_name("s", i), "MKVLATTWYGGSDERKLAAC");
  const Alignment a = GetParam()->align(seqs);
  EXPECT_EQ(a.num_cols(), 20u);
}

TEST_P(AlignerContractTest, EmptyInputThrows) {
  EXPECT_THROW((void)GetParam()->align({}), std::invalid_argument);
}

TEST_P(AlignerContractTest, RecoversReferenceOnCloseFamilies) {
  // Low divergence: every serious aligner should recover most of the true
  // alignment (Q well above 0.5).
  workload::EvolveParams ep;
  ep.num_sequences = 8;
  ep.root_length = 60;
  ep.mean_branch_distance = 0.15;
  ep.seed = 5;
  const workload::Family fam = workload::evolve_family(ep);
  const Alignment a = GetParam()->align(fam.sequences);
  EXPECT_GT(q_score(a, fam.reference), 0.5) << GetParam()->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllAligners, AlignerContractTest, ::testing::ValuesIn(all_aligners()),
    [](const auto& info) {
      std::string n = info.param->name();
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n + "_" + std::to_string(info.index);
    });

// ---- aligner-specific behaviours -------------------------------------------------

TEST(MuscleAligner, NameReflectsRefinement) {
  EXPECT_EQ(MuscleAligner().name(), "MiniMuscle");
  MuscleOptions o;
  o.refine_passes = 2;
  EXPECT_EQ(MuscleAligner(o).name(), "MiniMuscle+refine");
}

TEST(MuscleAligner, DuplicateIdsRejected) {
  std::vector<Sequence> seqs{Sequence("x", "ACDEF"), Sequence("x", "ACDFF")};
  EXPECT_THROW((void)MuscleAligner().align(seqs), std::invalid_argument);
}

TEST(MuscleAligner, DefaultAlignerFactory) {
  const auto a = make_default_aligner();
  EXPECT_EQ(a->name(), "MiniMuscle");
}

TEST(MuscleAligner, Stage2CanBeDisabled) {
  MuscleOptions o;
  o.reestimate_tree = false;
  const auto seqs = family(6, 35, 500, 6);
  const Alignment a = MuscleAligner(o).align(seqs);
  a.validate();
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

// ---- MUSCLE stage 2: bit-sliced induced-Kimura kernel vs the byte loop -----

/// The byte loop the bit-sliced kernel replaced, kept as its oracle.
double byte_loop_kimura(const AlignedRow& a, const AlignedRow& b) {
  std::size_t cols = 0;
  std::size_t matches = 0;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    if (a.cells[c] == Alignment::kGap || b.cells[c] == Alignment::kGap)
      continue;
    ++cols;
    if (a.cells[c] == b.cells[c]) ++matches;
  }
  const double identity =
      cols == 0 ? 0.0
                : static_cast<double>(matches) / static_cast<double>(cols);
  return align::kimura_distance(identity);
}

/// Rows mutated from one random base row (so identities spread over the
/// whole range) with 30% gaps, plus an all-gap row, an all-wildcard row and
/// a wildcard row with gaps.
Alignment kimura_case(bio::AlphabetKind kind, std::size_t width,
                      std::uint64_t seed) {
  const bio::Alphabet& alpha = bio::Alphabet::get(kind);
  util::Rng rng(seed);
  const auto code = [&] {
    return static_cast<std::uint8_t>(
        rng.below(static_cast<std::uint64_t>(alpha.size())));
  };
  std::vector<std::uint8_t> base(width);
  for (auto& c : base) c = code();
  std::vector<AlignedRow> rows;
  for (std::size_t r = 0; r < 12; ++r) {
    AlignedRow row{util::indexed_name("r", r), base};
    const double keep = static_cast<double>(r) / 9.0;
    for (auto& c : row.cells) {
      if (!rng.chance(keep)) c = code();
      if (rng.chance(0.3)) c = Alignment::kGap;
    }
    rows.push_back(std::move(row));
  }
  rows.push_back({"gaps", std::vector<std::uint8_t>(width, Alignment::kGap)});
  rows.push_back({"wild", std::vector<std::uint8_t>(width, alpha.wildcard())});
  AlignedRow gappy_wild{"wild_gaps", rows.back().cells};
  for (auto& c : gappy_wild.cells)
    if (rng.chance(0.5)) c = Alignment::kGap;
  rows.push_back(std::move(gappy_wild));
  return Alignment(std::move(rows), kind);
}

TEST(InducedKimura, BitSlicedMatchesByteLoop) {
  std::uint64_t seed = 1;
  for (const auto kind : {bio::AlphabetKind::AminoAcid, bio::AlphabetKind::Dna})
    for (const std::size_t width : {0, 1, 63, 64, 65, 130, 724}) {
      const Alignment aln = kimura_case(kind, width, ++seed);
      for (const unsigned threads : {1U, 4U}) {
        const auto d = induced_kimura_distances(aln, threads);
        for (std::size_t i = 0; i < aln.num_rows(); ++i) {
          EXPECT_EQ(d(i, i), 0.0);
          for (std::size_t j = 0; j < i; ++j)
            EXPECT_EQ(d(i, j), byte_loop_kimura(aln.row(i), aln.row(j)))
                << "width " << width << " threads " << threads << " pair "
                << i << "," << j;
        }
      }
    }
}

TEST(InducedKimura, OutOfRangeCodeThrows) {
  const auto rows = [](std::uint8_t code) {
    return std::vector<AlignedRow>{{"a", {0, code, Alignment::kGap}},
                                   {"b", {0, 1, 2}}};
  };
  EXPECT_NO_THROW((void)induced_kimura_distances(rows(31), 1));
  EXPECT_THROW((void)induced_kimura_distances(rows(32), 1),
               std::invalid_argument);
  EXPECT_THROW((void)induced_kimura_distances(rows(0xFE), 1),
               std::invalid_argument);
  const std::vector<AlignedRow> ragged{{"a", {0, 1}}, {"b", {0}}};
  EXPECT_THROW((void)induced_kimura_distances(ragged, 1),
               std::invalid_argument);
}

TEST(ClustalWAligner, BandedDistancePassWorks) {
  ClustalWOptions o;
  o.pairwise_band = 10;
  const auto seqs = family(6, 40, 400, 7);
  const Alignment a = ClustalWAligner(o).align(seqs);
  a.validate();
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST(TCoffeeAligner, RejectsOversizedInput) {
  TCoffeeOptions o;
  o.max_sequences = 4;
  const auto seqs = family(5, 20, 300, 8);
  EXPECT_THROW((void)TCoffeeAligner(o).align(seqs), std::invalid_argument);
}

TEST(TCoffeeAligner, LocalLibraryToggleStillValid) {
  TCoffeeOptions o;
  o.add_local_library = false;
  const auto seqs = family(5, 30, 400, 9);
  const Alignment a = TCoffeeAligner(o).align(seqs);
  for (std::size_t i = 0; i < seqs.size(); ++i)
    EXPECT_EQ(a.degapped(i), seqs[i]);
}

TEST(MafftAligner, NamesMatchTable2Labels) {
  MafftOptions nw;
  nw.use_fft = false;
  EXPECT_EQ(MafftAligner(nw).name(), "NWNSI");
  MafftOptions fft;
  fft.use_fft = true;
  EXPECT_EQ(MafftAligner(fft).name(), "FFTNSI");
  MafftOptions plain;
  plain.use_fft = true;
  plain.refine_passes = 0;
  EXPECT_EQ(MafftAligner(plain).name(), "FFTNS");
}

TEST(MafftAligner, FftAndNwAgreeOnSimilarFamilies) {
  // On low-divergence input the FFT band contains the optimal path, so the
  // two MAFFT modes should produce nearly identical quality.
  workload::EvolveParams ep;
  ep.num_sequences = 6;
  ep.root_length = 80;
  ep.mean_branch_distance = 0.1;
  ep.seed = 10;
  const workload::Family fam = workload::evolve_family(ep);
  MafftOptions nw;
  nw.use_fft = false;
  nw.refine_passes = 0;
  MafftOptions fft;
  fft.use_fft = true;
  fft.refine_passes = 0;
  const double q_nw = q_score(MafftAligner(nw).align(fam.sequences),
                              fam.reference);
  const double q_fft = q_score(MafftAligner(fft).align(fam.sequences),
                               fam.reference);
  EXPECT_NEAR(q_nw, q_fft, 0.1);
}

// ---- threaded distance passes --------------------------------------------------

void expect_same_alignment(const Alignment& want, const Alignment& got,
                           const char* label) {
  ASSERT_EQ(want.num_rows(), got.num_rows()) << label;
  ASSERT_EQ(want.num_cols(), got.num_cols()) << label;
  for (std::size_t r = 0; r < want.num_rows(); ++r) {
    EXPECT_EQ(want.row(r).id, got.row(r).id) << label << " row " << r;
    EXPECT_EQ(want.row(r).cells, got.row(r).cells) << label << " row " << r;
  }
}

// The distance-matrix passes of every aligner now run through the threaded
// drivers; any thread count must reproduce the serial output bit for bit.
TEST(AlignerDeterminism, ThreadedDistancePassesAreBitIdentical) {
  const auto seqs = family(10, 60, 900, 7);
  {
    ClustalWOptions serial;
    ClustalWOptions threaded;
    threaded.threads = 4;
    expect_same_alignment(ClustalWAligner(serial).align(seqs),
                          ClustalWAligner(threaded).align(seqs), "clustalw");
  }
  {
    TCoffeeOptions serial;
    TCoffeeOptions threaded;
    threaded.threads = 4;
    expect_same_alignment(TCoffeeAligner(serial).align(seqs),
                          TCoffeeAligner(threaded).align(seqs), "tcoffee");
  }
  {
    MuscleOptions serial;
    MuscleOptions threaded;
    threaded.threads = 4;
    expect_same_alignment(MuscleAligner(serial).align(seqs),
                          MuscleAligner(threaded).align(seqs), "muscle");
  }
  {
    const auto small = family(7, 40, 900, 9);
    ProbConsOptions serial;
    ProbConsOptions threaded;
    threaded.threads = 4;
    expect_same_alignment(ProbConsAligner(serial).align(small),
                          ProbConsAligner(threaded).align(small), "probcons");
  }
}

// The score-distance guide-tree mode is a different (faster) distance
// source: it must still produce a valid alignment of every input row.
TEST(ClustalWAligner, ScoreDistanceModeAlignsValidly) {
  const auto seqs = family(8, 70, 800, 11);
  ClustalWOptions opt;
  opt.distance = ClustalWOptions::Distance::kScore;
  opt.threads = 2;
  const Alignment aln = ClustalWAligner(opt).align(seqs);
  EXPECT_EQ(aln.num_rows(), seqs.size());
  for (std::size_t r = 0; r < aln.num_rows(); ++r)
    EXPECT_EQ(aln.row(r).id, seqs[r].id());
}

TEST(AlignerQuality, ConsistencyHelpsOnDivergentFamilies) {
  // Sanity echo of the paper's Table 2 ordering tendency: on harder sets,
  // T-Coffee should be at least competitive with plain progressive
  // ClustalW. (Loose bound — quality experiments live in the benches.)
  workload::EvolveParams ep;
  ep.num_sequences = 10;
  ep.root_length = 60;
  ep.mean_branch_distance = 0.7;
  ep.seed = 11;
  const workload::Family fam = workload::evolve_family(ep);
  const double q_tc =
      q_score(TCoffeeAligner().align(fam.sequences), fam.reference);
  const double q_cw =
      q_score(ClustalWAligner().align(fam.sequences), fam.reference);
  EXPECT_GT(q_tc, q_cw - 0.15);
}

}  // namespace
}  // namespace salign::msa
