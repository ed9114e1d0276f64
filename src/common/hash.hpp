// Stable 64-bit hashing (FNV-1a).
//
// Used wherever the project needs a digest that is bit-identical across
// platforms and toolchains: trace digests (hq::trace::digest), functional
// output digests of the Rodinia ports, and the hqfuzz metamorphic oracles.
// Only fixed-width integers and raw bytes are ever fed in, so the result
// never depends on implementation-defined representations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace hq {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Incremental FNV-1a accumulator.
class Fnv1a64 {
 public:
  Fnv1a64& mix_byte(std::uint8_t b) {
    state_ = (state_ ^ b) * kFnvPrime;
    return *this;
  }

  Fnv1a64& mix_bytes(std::span<const std::byte> bytes) {
    for (std::byte b : bytes) mix_byte(static_cast<std::uint8_t>(b));
    return *this;
  }

  /// Mixes a 64-bit value little-endian byte by byte (platform independent).
  Fnv1a64& mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  Fnv1a64& mix_i64(std::int64_t v) { return mix_u64(static_cast<std::uint64_t>(v)); }

  /// Mixes length then contents, so "ab","c" and "a","bc" digest differently.
  Fnv1a64& mix_string(std::string_view s) {
    mix_u64(s.size());
    for (char c : s) mix_byte(static_cast<std::uint8_t>(c));
    return *this;
  }

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = kFnvOffsetBasis;
};

}  // namespace hq
