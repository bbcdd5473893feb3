#include "kmer/kmer_rank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "align/distance.hpp"
#include "kmer/count_table.hpp"
#include "util/thread_pool.hpp"

namespace salign::kmer {

namespace {

/// Size of a dense count table able to hold every id of `a` and `b`
/// (1 + the largest id), or 0 when that exceeds kDenseTableLimit and the
/// kernel must fall back to the sorted-pair merge.
std::size_t dense_space(std::span<const KmerProfile> a,
                        std::span<const KmerProfile> b) {
  std::uint64_t space = 0;
  for (const auto set : {a, b})
    for (const KmerProfile& p : set)
      if (!p.counts().empty())
        space = std::max<std::uint64_t>(space, p.counts().back().first + 1ULL);
  return space <= kDenseTableLimit ? static_cast<std::size_t>(space) : 0;
}

/// Dense-row similarity kernel: row x's counts are scattered into the
/// thread's dense_count_table, indexed by packed k-mer id, so r(x, y)
/// against any y is one pass over y's sparse list summing
/// min(table[id], count). The integer `shared` and the division are those
/// of KmerProfile::similarity, so every value is bit-identical to it. Only
/// x's ids are cleared when the row changes or the kernel goes out of
/// scope, leaving the table zeroed. A space of 0 (ids past
/// kDenseTableLimit) falls back to similarity.
class DenseRow {
 public:
  explicit DenseRow(std::size_t space) {
    if (space > 0) table_ = detail::dense_count_table(space).data();
  }
  ~DenseRow() { clear(); }
  DenseRow(const DenseRow&) = delete;
  DenseRow& operator=(const DenseRow&) = delete;

  [[nodiscard]] const KmerProfile* row() const { return x_; }

  void load(const KmerProfile& x) {
    clear();
    x_ = &x;
    if (table_ == nullptr) return;
    for (const auto& [id, count] : x.counts()) table_[id] = count;
  }

  [[nodiscard]] double similarity(const KmerProfile& y) const {
    if (table_ == nullptr) return x_->similarity(y);
    if (x_->k() != y.k())
      throw std::invalid_argument("KmerProfile: mismatched k");
    const auto k = static_cast<std::size_t>(y.k());
    const std::size_t min_len = std::min(x_->length(), y.length());
    if (min_len < k) return 0.0;
    std::uint64_t shared = 0;
    for (const auto& [id, count] : y.counts())
      shared += std::min(table_[id], count);
    const auto denom = static_cast<double>(min_len - k + 1);
    return static_cast<double>(shared) / denom;
  }

 private:
  void clear() {
    if (table_ != nullptr && x_ != nullptr)
      for (const auto& [id, count] : x_->counts()) table_[id] = 0;
    x_ = nullptr;
  }

  std::uint32_t* table_ = nullptr;
  const KmerProfile* x_ = nullptr;
};

}  // namespace

double rank_from_mean_similarity(double mean_similarity) {
  if (mean_similarity < 0.0 || mean_similarity > 1.0 + 1e-9)
    throw std::invalid_argument("mean similarity outside [0, 1]");
  return -std::log(0.1 + mean_similarity);
}

double mean_similarity(const KmerProfile& x,
                       std::span<const KmerProfile> refs) {
  if (refs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : refs) sum += x.similarity(r);
  return sum / static_cast<double>(refs.size());
}

std::vector<double> ranks_against(std::span<const KmerProfile> seqs,
                                  std::span<const KmerProfile> refs) {
  std::vector<double> out;
  out.reserve(seqs.size());
  DenseRow row(dense_space(seqs, refs));
  for (const auto& x : seqs) {
    // Same summation as mean_similarity, so ranks match it bit for bit.
    double mean = 0.0;
    if (!refs.empty()) {
      row.load(x);
      double sum = 0.0;
      for (const auto& r : refs) sum += row.similarity(r);
      mean = sum / static_cast<double>(refs.size());
    }
    out.push_back(rank_from_mean_similarity(mean));
  }
  return out;
}

std::vector<double> centralized_ranks(std::span<const bio::Sequence> seqs,
                                      const KmerParams& params) {
  const std::vector<KmerProfile> profiles = build_profiles(seqs, params);
  return ranks_against(profiles, profiles);
}

std::vector<double> globalized_ranks(std::span<const bio::Sequence> seqs,
                                     std::span<const bio::Sequence> samples,
                                     const KmerParams& params) {
  const std::vector<KmerProfile> profiles = build_profiles(seqs, params);
  const std::vector<KmerProfile> refs = build_profiles(samples, params);
  return ranks_against(profiles, refs);
}

util::SymmetricMatrix<double> distance_matrix(
    std::span<const bio::Sequence> seqs, const KmerParams& params,
    unsigned threads) {
  const std::vector<KmerProfile> profiles = build_profiles(seqs, params);
  const std::size_t n = profiles.size();
  const std::size_t space = dense_space(profiles, {});
  util::SymmetricMatrix<double> d(n, 0.0);
  util::parallel_for(
      n == 0 ? 0 : n * (n - 1) / 2,
      [&](std::size_t begin, std::size_t end) {
        // Walk the chunk's pairs in pair_from_index order (row i, then
        // j < i), re-scattering only when the row changes.
        DenseRow row(space);
        auto [i, j] = align::pair_from_index(begin);
        for (std::size_t p = begin; p < end; ++p) {
          if (row.row() != &profiles[i]) row.load(profiles[i]);
          d(i, j) = 1.0 - row.similarity(profiles[j]);
          if (++j == i) {
            ++i;
            j = 0;
          }
        }
      },
      threads);
  return d;
}

}  // namespace salign::kmer
