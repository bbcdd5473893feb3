#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/stage/artifacts.hpp"
#include "core/stage/stage.hpp"
#include "msa/guide_tree.hpp"
#include "par/serialize.hpp"
#include "util/stable_hash.hpp"

namespace salign {
namespace {

using core::stage::RankedPartition;
using core::stage::RankedRef;
using util::Digest128;
using util::StableHash;

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

// ---- util::StableHash ------------------------------------------------------

// Pinned digests: an accidental algorithm change silently invalidates every
// on-disk checkpoint key, so it must fail loudly here instead.
TEST(StableHash, PinnedDigests) {
  EXPECT_EQ(util::stable_hash128({}).hex(), "e85c1e5d33461bece737fb23aa98cdaf");
  const auto abc = bytes_of("abc");
  EXPECT_EQ(util::stable_hash128(abc).hex(), "ec8b62875d15f3cbbd4c5f1c295db233");
  const auto sixteen = bytes_of("0123456789abcdef");  // exactly one block
  EXPECT_EQ(util::stable_hash128(sixteen).hex(),
            "41a81f38159fd35210ec3347a80c291d");
  StableHash typed;
  typed.str("salign");
  typed.u8(7);
  typed.u32(0xDEADBEEF);
  typed.u64(0x0123456789ABCDEFULL);
  typed.f64(-1.5);
  EXPECT_EQ(typed.digest128().hex(), "d7cacfb8e28f158c598ae4bb9be7303b");
}

TEST(StableHash, ChunkingDoesNotChangeDigest) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  const Digest128 oneshot = util::stable_hash128(data);
  for (std::size_t cut = 0; cut <= data.size(); cut += 7) {
    StableHash h;
    h.update(std::span(data).subspan(0, cut));
    h.update(std::span(data).subspan(cut));
    EXPECT_EQ(h.digest128(), oneshot) << "cut at " << cut;
  }
}

TEST(StableHash, SeedAndContentChangeDigest) {
  const auto data = bytes_of("payload");
  StableHash a;
  a.update(std::span(data));
  StableHash b(42);
  b.update(std::span(data));
  EXPECT_NE(a.digest128(), b.digest128());
  const auto data2 = bytes_of("payloae");
  EXPECT_NE(util::stable_hash128(data), util::stable_hash128(data2));
}

TEST(StableHash, DigestIsFinalizationNotMutation) {
  StableHash h;
  h.str("first");
  const Digest128 d1 = h.digest128();
  EXPECT_EQ(d1, h.digest128());  // repeated finalize is stable
  h.str("second");
  EXPECT_NE(d1, h.digest128());  // state keeps streaming
}

TEST(Digest128, HexRoundTrip) {
  const Digest128 d{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
  Digest128 back;
  ASSERT_TRUE(Digest128::parse(d.hex(), back));
  EXPECT_EQ(back, d);
  EXPECT_FALSE(Digest128::parse("too-short", back));
  EXPECT_FALSE(Digest128::parse("zz23456789abcdeffedcba9876543210", back));
}

// ---- stage artifact codecs -------------------------------------------------

template <typename T, typename Write, typename Read>
T round_trip(const T& value, Write&& write, Read&& read) {
  par::ByteWriter w;
  write(w, value);
  par::ByteReader r{w.take()};
  T back = read(r);
  EXPECT_TRUE(r.done());
  return back;
}

TEST(StageArtifacts, RankedPartitionRoundTrip) {
  const RankedPartition parts{
      {RankedRef{0, 0.25}, RankedRef{7, -1.5}}, {}, {RankedRef{3, 0.0}}};
  EXPECT_EQ(round_trip(parts, core::stage::write_ranked_partition,
                       core::stage::read_ranked_partition),
            parts);
}

TEST(StageArtifacts, IndicesRoundTrip) {
  const std::vector<std::uint64_t> v{0, 1, 42, ~std::uint64_t{0}};
  EXPECT_EQ(
      round_trip(v, core::stage::write_indices, core::stage::read_indices),
      v);
  EXPECT_EQ(round_trip(std::vector<std::uint64_t>{},
                       core::stage::write_indices, core::stage::read_indices),
            std::vector<std::uint64_t>{});
}

TEST(StageArtifacts, IndexAndDoubleRoundTrips) {
  const std::vector<std::vector<std::uint64_t>> lists{{1, 2, 3}, {}, {9}};
  EXPECT_EQ(round_trip(lists, core::stage::write_index_lists,
                       core::stage::read_index_lists),
            lists);
  const std::vector<double> doubles{0.0, -1.5, 3.25e10};
  EXPECT_EQ(round_trip(doubles, core::stage::write_doubles,
                       core::stage::read_doubles),
            doubles);
}

TEST(StageArtifacts, AlignmentsRoundTrip) {
  const msa::Alignment aln = msa::Alignment::from_sequence(
      bio::Sequence("seq0", "ACDEF"));
  const std::vector<msa::Alignment> alns{aln, msa::Alignment{}};
  const auto back =
      round_trip(alns,
                 [](par::ByteWriter& w, const std::vector<msa::Alignment>& a) {
                   core::stage::write_alignments(w, a);
                 },
                 core::stage::read_alignments);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].num_rows(), 1u);
  EXPECT_EQ(back[0].row(0).id, "seq0");
  EXPECT_EQ(back[0].row(0).cells, aln.row(0).cells);
  EXPECT_TRUE(back[1].empty());
}

TEST(StageArtifacts, PathsRoundTrip) {
  using align::EditOp;
  const std::vector<std::vector<EditOp>> paths{
      {EditOp::Match, EditOp::GapInA, EditOp::GapInB}, {}};
  EXPECT_EQ(
      round_trip(paths, core::stage::write_paths, core::stage::read_paths),
      paths);
}

// ---- msa::GuideTree::from_nodes -------------------------------------------

TEST(GuideTreeFromNodes, RejectsInconsistentShapes) {
  using msa::GuideTree;
  using msa::TreeNode;
  EXPECT_THROW((void)GuideTree::from_nodes({}, 0, 0), std::invalid_argument);
  // A leaf in the internal region.
  std::vector<TreeNode> nodes(3);
  nodes[0].leaf_index = 0;
  nodes[1].leaf_index = 1;
  nodes[2].left = 0;
  nodes[2].right = 1;
  EXPECT_THROW((void)GuideTree::from_nodes(nodes, 3, 2),
               std::invalid_argument);
  EXPECT_THROW((void)GuideTree::from_nodes(nodes, 2, 5),
               std::invalid_argument);
  // The consistent shape assembles fine.
  const GuideTree t = GuideTree::from_nodes(nodes, 2, 2);
  EXPECT_EQ(t.num_leaves(), 2u);
  EXPECT_EQ(t.root(), 2);
}

// ---- malformed-artifact corpus ---------------------------------------------
// Every artifact codec must survive arbitrary corruption of its payload:
// decode either succeeds (a lucky flip can produce a different valid
// payload) or throws std::exception — never crashes, never hands the
// allocator a bit-flipped multi-gigabyte count. The asan/ubsan presets run
// this same corpus, so out-of-bounds reads and UB get caught, not just
// aborts.

struct Codec {
  const char* name;
  par::Bytes valid;                      // a real serialized payload
  void (*decode)(par::ByteReader&);      // decode + discard
};

std::vector<Codec> codec_corpus() {
  std::vector<Codec> corpus;
  const auto add = [&](const char* name, auto&& write, auto decode) {
    par::ByteWriter w;
    write(w);
    corpus.push_back(Codec{name, w.take(), decode});
  };
  using core::stage::RankedRef;
  add("ranked_partition",
      [](par::ByteWriter& w) {
        core::stage::write_ranked_partition(
            w, {{RankedRef{0, 0.25}, RankedRef{7, -1.5}}, {RankedRef{3, 0.0}}});
      },
      +[](par::ByteReader& r) { (void)core::stage::read_ranked_partition(r); });
  add("index_lists",
      [](par::ByteWriter& w) {
        core::stage::write_index_lists(w, {{1, 2, 3}, {}, {9}});
      },
      +[](par::ByteReader& r) { (void)core::stage::read_index_lists(r); });
  add("indices",
      [](par::ByteWriter& w) { core::stage::write_indices(w, {4, 5, 6}); },
      +[](par::ByteReader& r) { (void)core::stage::read_indices(r); });
  add("doubles",
      [](par::ByteWriter& w) {
        core::stage::write_doubles(w, {0.0, -1.5, 3.25e10});
      },
      +[](par::ByteReader& r) { (void)core::stage::read_doubles(r); });
  add("alignments",
      [](par::ByteWriter& w) {
        const std::vector<msa::Alignment> alns{
            msa::Alignment::from_sequence(bio::Sequence("seq0", "ACDEF"))};
        core::stage::write_alignments(w, alns);
      },
      +[](par::ByteReader& r) { (void)core::stage::read_alignments(r); });
  add("paths",
      [](par::ByteWriter& w) {
        using align::EditOp;
        core::stage::write_paths(
            w, {{EditOp::Match, EditOp::GapInA, EditOp::GapInB}, {}});
      },
      +[](par::ByteReader& r) { (void)core::stage::read_paths(r); });
  add("sequences",
      [](par::ByteWriter& w) {
        const std::vector<bio::Sequence> seqs{bio::Sequence("a", "ACDEF"),
                                              bio::Sequence("b", "WW")};
        par::write_sequences(w, seqs);
      },
      +[](par::ByteReader& r) { (void)par::read_sequences(r); });
  add("alignment",
      [](par::ByteWriter& w) {
        par::write_alignment(
            w, msa::Alignment::from_sequence(bio::Sequence("seq0", "ACDEF")));
      },
      +[](par::ByteReader& r) { (void)par::read_alignment(r); });
  return corpus;
}

void expect_decode_survives(const Codec& c, const par::Bytes& payload,
                            const std::string& what) {
  try {
    par::ByteReader r{par::Bytes(payload)};
    c.decode(r);  // success is fine — corruption can still be valid
  } catch (const std::exception&) {
    // clean rejection is the expected outcome
  }
  SUCCEED() << c.name << " survived " << what;
}

TEST(MalformedArtifacts, EveryTruncationIsRejectedCleanly) {
  for (const Codec& c : codec_corpus()) {
    for (std::size_t len = 0; len < c.valid.size(); ++len) {
      par::Bytes cut(c.valid.begin(),
                     c.valid.begin() + static_cast<long>(len));
      expect_decode_survives(c, cut, "truncation to " + std::to_string(len));
    }
  }
}

TEST(MalformedArtifacts, EveryBitFlipIsRejectedCleanly) {
  for (const Codec& c : codec_corpus()) {
    for (std::size_t byte = 0; byte < c.valid.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        par::Bytes flipped = c.valid;
        flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
        expect_decode_survives(
            c, flipped,
            "flip of byte " + std::to_string(byte) + " bit " +
                std::to_string(bit));
      }
    }
  }
}

TEST(MalformedArtifacts, RandomizedGarbageIsRejectedCleanly) {
  // Seeded xorshift so failures reproduce; a few hundred random payloads
  // per codec, sized around the valid payload's length.
  std::uint64_t state = 0x5a11a11a;
  const auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (const Codec& c : codec_corpus()) {
    for (int trial = 0; trial < 200; ++trial) {
      par::Bytes junk(next() % (2 * c.valid.size() + 16));
      for (auto& b : junk) b = static_cast<std::uint8_t>(next());
      expect_decode_survives(c, junk, "random payload");
    }
  }
}

// ---- checkpoint manifest ---------------------------------------------------

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("salign_stage_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ManifestTest, StoreThenResumeRoundTrip) {
  const Digest128 pipeline{1234, 5678};
  core::stage::CheckpointOptions opts;
  opts.dir = dir_;
  {
    core::stage::StageContext ctx(opts, pipeline);
    core::stage::StageRunner runner(ctx);
    const int v = runner.run(
        "alpha", 2, [] { return 41; },
        [](par::ByteWriter& w, int x) { w.u32(static_cast<std::uint32_t>(x)); },
        [](par::ByteReader& r) { return static_cast<int>(r.u32()); });
    EXPECT_EQ(v, 41);
    EXPECT_EQ(runner.resumed_stages(), 0u);
  }
  const core::stage::Manifest m = core::stage::read_manifest(dir_);
  EXPECT_EQ(m.format_version, core::stage::kCheckpointFormatVersion);
  EXPECT_EQ(m.pipeline_hash, pipeline);
  ASSERT_EQ(m.records.size(), 1u);
  EXPECT_EQ(m.records[0].name, "alpha");
  EXPECT_EQ(m.records[0].paper_step, 2);
  par::Bytes payload;
  EXPECT_TRUE(core::stage::read_artifact(dir_, m.records[0], payload));
  EXPECT_EQ(payload.size(), 4u);

  opts.resume = true;
  core::stage::StageContext ctx(opts, pipeline);
  core::stage::StageRunner runner(ctx);
  const int v = runner.run(
      "alpha", 2, []() -> int { throw std::logic_error("must not recompute"); },
      [](par::ByteWriter& w, int x) { w.u32(static_cast<std::uint32_t>(x)); },
      [](par::ByteReader& r) { return static_cast<int>(r.u32()); });
  EXPECT_EQ(v, 41);
  EXPECT_EQ(runner.resumed_stages(), 1u);
}

TEST_F(ManifestTest, MismatchedPipelineHashIsIgnored) {
  core::stage::CheckpointOptions opts;
  opts.dir = dir_;
  {
    core::stage::StageContext ctx(opts, Digest128{1, 1});
    core::stage::StageRunner runner(ctx);
    (void)runner.run(
        "alpha", 2, [] { return 1; },
        [](par::ByteWriter& w, int x) { w.u32(static_cast<std::uint32_t>(x)); },
        [](par::ByteReader& r) { return static_cast<int>(r.u32()); });
  }
  // A different pipeline identity (e.g. changed config) must recompute.
  opts.resume = true;
  core::stage::StageContext ctx(opts, Digest128{2, 2});
  core::stage::StageRunner runner(ctx);
  const int v = runner.run(
      "alpha", 2, [] { return 7; },
      [](par::ByteWriter& w, int x) { w.u32(static_cast<std::uint32_t>(x)); },
      [](par::ByteReader& r) { return static_cast<int>(r.u32()); });
  EXPECT_EQ(v, 7);
  EXPECT_EQ(runner.resumed_stages(), 0u);
}

TEST_F(ManifestTest, CorruptArtifactFailsVerificationAndRecomputes) {
  core::stage::CheckpointOptions opts;
  opts.dir = dir_;
  {
    core::stage::StageContext ctx(opts, Digest128{3, 3});
    core::stage::StageRunner runner(ctx);
    (void)runner.run(
        "alpha", 2, [] { return 41; },
        [](par::ByteWriter& w, int x) { w.u32(static_cast<std::uint32_t>(x)); },
        [](par::ByteReader& r) { return static_cast<int>(r.u32()); });
  }
  const core::stage::Manifest before = core::stage::read_manifest(dir_);
  ASSERT_EQ(before.records.size(), 1u);
  {
    // Flip a payload byte on disk.
    const std::string path = dir_ + "/" + before.records[0].file;
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
  }
  par::Bytes payload;
  EXPECT_FALSE(core::stage::read_artifact(dir_, before.records[0], payload));

  opts.resume = true;
  core::stage::StageContext ctx(opts, Digest128{3, 3});
  core::stage::StageRunner runner(ctx);
  const int v = runner.run(
      "alpha", 2, [] { return 9; },
      [](par::ByteWriter& w, int x) { w.u32(static_cast<std::uint32_t>(x)); },
      [](par::ByteReader& r) { return static_cast<int>(r.u32()); });
  EXPECT_EQ(v, 9);  // recomputed, not resumed from the corrupt artifact
  EXPECT_EQ(runner.resumed_stages(), 0u);
}

TEST_F(ManifestTest, FailAfterThrowsStageAbortAfterDurableWrite) {
  core::stage::CheckpointOptions opts;
  opts.dir = dir_;
  opts.fail_after = 0;
  core::stage::StageContext ctx(opts, Digest128{4, 4});
  core::stage::StageRunner runner(ctx);
  EXPECT_THROW(
      (void)runner.run(
          "alpha", 2, [] { return 1; },
          [](par::ByteWriter& w, int x) {
            w.u32(static_cast<std::uint32_t>(x));
          },
          [](par::ByteReader& r) { return static_cast<int>(r.u32()); }),
      core::stage::StageAbort);
  // The artifact it aborted after is durably on disk.
  const core::stage::Manifest m = core::stage::read_manifest(dir_);
  ASSERT_EQ(m.records.size(), 1u);
  par::Bytes payload;
  EXPECT_TRUE(core::stage::read_artifact(dir_, m.records[0], payload));
}

TEST(ManifestErrors, MissingDirectoryThrows) {
  EXPECT_THROW((void)core::stage::read_manifest("/nonexistent/salign-xyz"),
               std::runtime_error);
}

}  // namespace
}  // namespace salign
