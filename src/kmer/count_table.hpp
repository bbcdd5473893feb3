#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace salign::kmer::detail {

/// The calling thread's dense count table over packed k-mer ids, grown to
/// at least `space` slots (at most kDenseTableLimit). KmerProfile::
/// from_sequence counts a sequence's windows in it, and the dense-row
/// similarity kernel (kmer_rank.cpp) holds one row's counts in it, so each
/// thread keeps a single table for both. Every use zeroes the slots it set
/// before it returns, and no use may start on a thread while another is
/// live there.
[[nodiscard]] std::vector<std::uint32_t>& dense_count_table(std::size_t space);

}  // namespace salign::kmer::detail
