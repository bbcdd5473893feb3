#include "par/serialize.hpp"

namespace salign::par {

// Out of line, and resize+memcpy instead of insert(end, b, b+n): inlined
// into callers that append constant-size fields, GCC 12 at -O2/-O3 flags
// the vector growth with -Warray-bounds and the iterator-range insert with
// -Wnonnull — both false positives, fatal under -Werror.
void ByteWriter::raw(const void* p, std::size_t n) {
  if (n == 0) return;
  const std::size_t old = buf_.size();
  buf_.resize(old + n);
  std::memcpy(buf_.data() + old, p, n);
}

void write_sequence(ByteWriter& w, const bio::Sequence& s) {
  w.u8(static_cast<std::uint8_t>(s.alphabet_kind()));
  w.str(s.id());
  w.bytes(s.codes());
}

bio::Sequence read_sequence(ByteReader& r) {
  const auto kind = static_cast<bio::AlphabetKind>(r.u8());
  std::string id = r.str();
  std::vector<std::uint8_t> codes = r.bytes();
  return bio::Sequence(std::move(id), std::move(codes), kind);
}

void write_sequences(ByteWriter& w, std::span<const bio::Sequence> seqs) {
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  for (const auto& s : seqs) write_sequence(w, s);
}

std::vector<bio::Sequence> read_sequences(ByteReader& r) {
  // count(): a corrupt length throws before the reserve below allocates.
  const std::uint32_t n = r.count(9);  // kind + two length prefixes
  std::vector<bio::Sequence> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(read_sequence(r));
  return out;
}

void write_alignment(ByteWriter& w, const msa::Alignment& a) {
  w.u8(static_cast<std::uint8_t>(a.alphabet_kind()));
  w.u32(static_cast<std::uint32_t>(a.num_rows()));
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    w.str(a.row(r).id);
    w.bytes(a.row(r).cells);
  }
}

msa::Alignment read_alignment(ByteReader& r) {
  const auto kind = static_cast<bio::AlphabetKind>(r.u8());
  const std::uint32_t rows = r.count(8);  // two length prefixes per row
  std::vector<msa::AlignedRow> out(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    out[i].id = r.str();
    out[i].cells = r.bytes();
  }
  return msa::Alignment(std::move(out), kind);
}

}  // namespace salign::par
