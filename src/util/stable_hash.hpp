#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace salign::util {

/// 128-bit content digest. Comparable so it can key checkpoint manifests
/// directly.
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Digest128&, const Digest128&) = default;

  /// 32 lowercase hex characters (hi then lo, big-endian digit order).
  [[nodiscard]] std::string hex() const;

  /// Parses the hex() form; returns false on malformed input.
  static bool parse(std::string_view text, Digest128& out);
};

/// Streaming, seedable, non-cryptographic 128-bit content hash.
///
/// Properties the stage layer relies on:
///  - *stable*: the digest depends only on the byte stream (bytes are
///    consumed in order and multi-byte words are assembled little-endian),
///    never on platform, build, or chunking — update(a+b) == update(a),
///    update(b). Digests are pinned by unit tests so an accidental algorithm
///    change (which would silently invalidate every on-disk checkpoint)
///    fails loudly.
///  - *typed helpers*: u8/u32/u64/f64/str write fixed-width little-endian
///    encodings (strings are length-prefixed), mirroring par::ByteWriter, so
///    hashing a value and hashing its serialization agree field by field.
///
/// The construction is two 64-bit mixing lanes over 16-byte blocks with a
/// murmur3-style cross-lane finalizer — quality is ample for checkpoint keys
/// and artifact integrity checks; it is NOT collision-resistant against an
/// adversary.
class StableHash {
 public:
  StableHash() = default;
  explicit StableHash(std::uint64_t seed) : a_(kLaneA ^ seed), b_(kLaneB ^ seed) {}

  void update(const void* data, std::size_t n);
  void update(std::span<const std::uint8_t> bytes) {
    update(bytes.data(), bytes.size());
  }

  void u8(std::uint8_t v) { update(&v, 1); }
  void u32(std::uint32_t v) { word(v, 4); }
  void u64(std::uint64_t v) { word(v, 8); }
  /// Hashes the IEEE-754 bit pattern (exactly what ByteWriter::f64 stores).
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    update(s.data(), s.size());
  }

  /// Finalizes a copy of the state; the hasher itself stays updatable.
  [[nodiscard]] Digest128 digest128() const;
  [[nodiscard]] std::uint64_t digest64() const { return digest128().hi; }

 private:
  static constexpr std::uint64_t kLaneA = 0x9368E53C2F6AF274ULL;
  static constexpr std::uint64_t kLaneB = 0xCA3D9DC7FEA00A18ULL;

  void word(std::uint64_t v, int bytes) {
    std::uint8_t buf[8];
    for (int i = 0; i < bytes; ++i)
      buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    update(buf, static_cast<std::size_t>(bytes));
  }
  void mix_block(const std::uint8_t* block);

  std::uint64_t a_ = kLaneA;
  std::uint64_t b_ = kLaneB;
  std::uint64_t length_ = 0;
  std::uint8_t buf_[16] = {};
  std::size_t buffered_ = 0;
};

/// One-shot helpers.
[[nodiscard]] Digest128 stable_hash128(std::span<const std::uint8_t> bytes);
[[nodiscard]] std::uint64_t stable_hash64(std::span<const std::uint8_t> bytes);

}  // namespace salign::util
