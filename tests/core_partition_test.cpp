#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/partition.hpp"
#include "util/rng.hpp"

namespace salign::core {
namespace {

// ---- regular_samples -------------------------------------------------------------

TEST(RegularSamples, EvenlySpacedFromSortedKeys) {
  std::vector<double> keys(12);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<double>(i);
  const auto s = regular_samples(keys, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 3.0);
  EXPECT_DOUBLE_EQ(s[1], 6.0);
  EXPECT_DOUBLE_EQ(s[2], 9.0);
}

TEST(RegularSamples, UnsortedInputThrows) {
  const std::vector<double> keys{3.0, 1.0};
  EXPECT_THROW((void)regular_samples(keys, 1), std::invalid_argument);
}

TEST(RegularSamples, FewerKeysThanRequested) {
  const std::vector<double> keys{1.0, 2.0};
  const auto s = regular_samples(keys, 5);
  EXPECT_EQ(s.size(), 2u);
}

TEST(RegularSamples, EmptyInput) {
  EXPECT_TRUE(regular_samples({}, 3).empty());
  const std::vector<double> keys{1.0};
  EXPECT_TRUE(regular_samples(keys, 0).empty());
}

TEST(RegularSamples, SamplesAreSortedSubset) {
  util::Rng rng(1);
  std::vector<double> keys(100);
  for (auto& k : keys) k = rng.uniform(0, 10);
  std::sort(keys.begin(), keys.end());
  const auto s = regular_samples(keys, 7);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  for (double v : s)
    EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(), v));
}

// ---- choose_pivots ----------------------------------------------------------------

TEST(ChoosePivots, CountIsPMinusOne) {
  std::vector<double> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(static_cast<double>(i));
  const auto piv = choose_pivots(samples, 4);
  EXPECT_EQ(piv.size(), 3u);
  EXPECT_TRUE(std::is_sorted(piv.begin(), piv.end()));
}

TEST(ChoosePivots, PaperPositions) {
  // p = 4 -> pivots at sorted positions p/2 + i*p = 2, 6, 10.
  std::vector<double> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(static_cast<double>(i) * 10);
  const auto piv = choose_pivots(samples, 4);
  ASSERT_EQ(piv.size(), 3u);
  EXPECT_DOUBLE_EQ(piv[0], 20.0);
  EXPECT_DOUBLE_EQ(piv[1], 60.0);
  EXPECT_DOUBLE_EQ(piv[2], 100.0);
}

TEST(ChoosePivots, SingleProcessorNoPivots) {
  EXPECT_TRUE(choose_pivots({1.0, 2.0}, 1).empty());
}

TEST(ChoosePivots, UnsortedSamplesHandled) {
  const auto piv = choose_pivots({5.0, 1.0, 3.0, 2.0, 4.0, 0.0}, 2);
  ASSERT_EQ(piv.size(), 1u);
  EXPECT_DOUBLE_EQ(piv[0], 1.0);  // position p/2 = 1 in sorted order
}

TEST(ChoosePivots, InvalidPThrows) {
  EXPECT_THROW((void)choose_pivots({1.0}, 0), std::invalid_argument);
}

// ---- bucket_of -----------------------------------------------------------------------

TEST(BucketOf, BoundariesInclusiveBelow) {
  const std::vector<double> pivots{10.0, 20.0};
  EXPECT_EQ(bucket_of(5.0, pivots), 0u);
  EXPECT_EQ(bucket_of(10.0, pivots), 0u);  // equal lands low
  EXPECT_EQ(bucket_of(10.5, pivots), 1u);
  EXPECT_EQ(bucket_of(20.0, pivots), 1u);
  EXPECT_EQ(bucket_of(25.0, pivots), 2u);
}

TEST(BucketOf, NoPivotsSingleBucket) {
  EXPECT_EQ(bucket_of(42.0, {}), 0u);
}

TEST(BucketHistogram, CountsAllKeys) {
  const std::vector<double> pivots{0.5};
  const std::vector<double> keys{0.1, 0.2, 0.9};
  const auto h = bucket_histogram(keys, pivots);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);
  EXPECT_EQ(h[1], 1u);
}

// ---- the PSRS 2N/p bound (the paper's §3 guarantee) --------------------------------

class PsrsBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(PsrsBoundTest, NoBucketExceedsTwiceShare) {
  const int p = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(p) * 7 + 1);
  const std::size_t n = 4000;
  // Distinct keys (the bound's precondition): a shuffled permutation.
  std::vector<double> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i);
  for (std::size_t i = n; i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);

  // Emulate the distributed selection: split into p blocks, locally sort,
  // regular-sample each, pool, choose pivots.
  const std::size_t chunk = (n + static_cast<std::size_t>(p) - 1) /
                            static_cast<std::size_t>(p);
  std::vector<double> pooled;
  for (int r = 0; r < p; ++r) {
    const std::size_t b = std::min(n, static_cast<std::size_t>(r) * chunk);
    const std::size_t e = std::min(n, b + chunk);
    std::vector<double> local(keys.begin() + static_cast<long>(b),
                              keys.begin() + static_cast<long>(e));
    std::sort(local.begin(), local.end());
    const auto samples =
        regular_samples(local, static_cast<std::size_t>(p - 1));
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  const auto pivots = choose_pivots(std::move(pooled), p);
  const auto hist = bucket_histogram(keys, pivots);
  ASSERT_EQ(hist.size(), static_cast<std::size_t>(p));
  const double share = static_cast<double>(n) / p;
  for (std::size_t b = 0; b < hist.size(); ++b)
    EXPECT_LE(static_cast<double>(hist[b]), 2.0 * share + 1.0)
        << "bucket " << b << " with p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Ps, PsrsBoundTest, ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace salign::core
