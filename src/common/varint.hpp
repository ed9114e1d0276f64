// Pairs of unsigned integers as one variable-length code word.
//
// A code word holds two varints, a and b, each in 7-bit groups (low bits
// first) after a shared length prefix. Counting from the low bit of the
// first byte, the prefix is one 1 bit at position (a bytes - 1) and one at
// (word bytes - 1), so a word whose varints take m and n bytes takes m + n
// bytes, as two LEB128 varints would. Reading it takes one 8-byte load and
// two bit scans, and the next word's address depends on a single scan, so
// words of random length decode without branching on their lengths. A word
// of more than 8 bytes (56 payload bits) is written in long form instead: a
// zero byte, then a and b as raw 8-byte values.
//
// A word takes at least 2 bytes, and a decode loads 8 bytes at the word's
// start, so a buffer must stay readable for kPadBytes past its last word.
// put_pair may write up to kLongBytes bytes (the short form writes a whole
// 8-byte word), so a buffer keeps that much room past its encoded bytes;
// room_for and trim manage a byte vector that way.
//
// Used by the telemetry series (obs::Series) and the span store
// (trace::Recorder).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace hq::varint {

static_assert(std::endian::native == std::endian::little,
              "code words are assembled little-endian");

/// Bytes of a long-form word, the most a word writes.
inline constexpr std::size_t kLongBytes = 17;
/// Readable bytes to keep after a buffer's last word.
inline constexpr std::size_t kPadBytes = 6;

/// Bytes of v as a 7-bit-group varint (1 for 0).
constexpr int bytes_of(std::uint64_t v) {
  return static_cast<int>(std::bit_width(v | 1) + 6) / 7;
}

/// Maps a signed difference (taken modulo 2^64) to an unsigned value that is
/// small when the difference is near zero: 0, -1, 1, -2, ... -> 0, 1, 2, 3.
constexpr std::uint64_t zigzag(std::uint64_t diff) {
  return diff << 1 ^ (0 - (diff >> 63));
}
constexpr std::uint64_t unzigzag(std::uint64_t z) {
  return z >> 1 ^ (0 - (z & 1));
}

[[gnu::noinline]] inline std::uint8_t* put_long_pair(std::uint8_t* at,
                                                     std::uint64_t a,
                                                     std::uint64_t b) {
  *at = 0;
  std::memcpy(at + 1, &a, sizeof a);
  std::memcpy(at + 1 + sizeof a, &b, sizeof b);
  return at + kLongBytes;
}

/// Writes the word for (a, b) at `at` (touching up to kLongBytes bytes);
/// returns its end.
[[gnu::always_inline]] inline std::uint8_t* put_pair(std::uint8_t* at,
                                                     std::uint64_t a,
                                                     std::uint64_t b) {
  const int a_bytes = bytes_of(a);
  const int bytes = a_bytes + bytes_of(b);
  if (bytes > 8) [[unlikely]] return put_long_pair(at, a, b);
  const std::uint64_t payload = a | b << (7 * a_bytes);
  const std::uint64_t word = payload << bytes |
                             std::uint64_t{1} << (bytes - 1) |
                             std::uint64_t{1} << (a_bytes - 1);
  std::memcpy(at, &word, sizeof word);
  return at + bytes;
}

struct Pair {
  std::uint64_t a;
  std::uint64_t b;
  std::size_t bytes;  ///< of the word
};

[[gnu::noinline]] inline Pair get_long_pair(const std::uint8_t* at) {
  Pair p{0, 0, kLongBytes};
  std::memcpy(&p.a, at + 1, sizeof p.a);
  std::memcpy(&p.b, at + 1 + sizeof p.a, sizeof p.b);
  return p;
}

/// Decodes the word at `at` (reading 8 bytes, or kLongBytes in long form).
[[gnu::always_inline]] inline Pair get_pair(const std::uint8_t* at) {
  std::uint64_t word = 0;
  std::memcpy(&word, at, sizeof word);
  if ((word & 0xff) == 0) [[unlikely]] return get_long_pair(at);
  const int bytes = std::countr_zero(word & (word - 1)) + 1;
  const int a_bits = 7 * (std::countr_zero(word) + 1);
  const std::uint64_t payload =
      (word & (~std::uint64_t{0} >> (64 - 8 * bytes))) >> bytes;
  return Pair{payload & ((std::uint64_t{1} << a_bits) - 1), payload >> a_bits,
              static_cast<std::size_t>(bytes)};
}

/// Where the next words go in an append buffer: a byte vector kept sized to
/// its allocation (zero-filled past the `used` encoded bytes), so words are
/// appended without a per-byte size update. Grows `bytes` first when fewer
/// than `words` long-form words and the read padding fit, by half at a
/// time rather than doubling: an open buffer is its owner's only slack.
inline std::uint8_t* room_for(std::vector<std::uint8_t>& bytes,
                              std::size_t used, std::size_t words) {
  const std::size_t room = words * kLongBytes + kPadBytes;
  if (bytes.size() - used < room) {
    const std::size_t grown = bytes.size() + bytes.size() / 2 + 2 * room;
    bytes.reserve(grown);
    bytes.resize(grown);
  }
  return bytes.data() + used;
}

/// Trims a finished append buffer to its `used` bytes plus the read padding.
inline void trim(std::vector<std::uint8_t>& bytes, std::size_t used) {
  bytes.resize(used + kPadBytes);
  bytes.shrink_to_fit();
}

}  // namespace hq::varint
