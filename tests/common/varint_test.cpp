// The shared code word (common/varint.hpp) at every length boundary: each
// (a, b) pair reads back exactly, takes the bytes two LEB128 varints would
// (or the long form past 8 bytes), and words of mixed lengths written back
// to back decode in order. Both span and series storage rest on this.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/varint.hpp"

namespace hq::varint {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// LEB128 length, counted the slow way.
int leb128_bytes(std::uint64_t v) {
  int n = 1;
  while (v >= 128) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// 0, and 2^(7k) - 1 and 2^(7k) for every group count k, up to 2^64 - 1.
std::vector<std::uint64_t> boundaries() {
  std::vector<std::uint64_t> out = {0, 1};
  for (int bits = 7; bits < 64; bits += 7) {
    out.push_back((std::uint64_t{1} << bits) - 1);
    out.push_back(std::uint64_t{1} << bits);
  }
  out.push_back(std::uint64_t{1} << 63);
  out.push_back(kMax - 1);
  out.push_back(kMax);
  return out;
}

TEST(VarintTest, BytesOfMatchesLeb128AtEveryGroupBoundary) {
  for (const std::uint64_t v : boundaries()) {
    EXPECT_EQ(bytes_of(v), leb128_bytes(v)) << v;
  }
}

TEST(VarintTest, EveryBoundaryPairRoundTripsAtItsLength) {
  const std::vector<std::uint64_t> values = boundaries();
  for (const std::uint64_t a : values) {
    for (const std::uint64_t b : values) {
      std::uint8_t buf[kLongBytes + kPadBytes] = {};
      const std::uint8_t* end = put_pair(buf, a, b);
      const int short_bytes = leb128_bytes(a) + leb128_bytes(b);
      const std::size_t want =
          short_bytes <= 8 ? static_cast<std::size_t>(short_bytes) : kLongBytes;
      ASSERT_EQ(static_cast<std::size_t>(end - buf), want) << a << ", " << b;
      const Pair p = get_pair(buf);
      ASSERT_EQ(p.a, a) << a << ", " << b;
      ASSERT_EQ(p.b, b) << a << ", " << b;
      ASSERT_EQ(p.bytes, want) << a << ", " << b;
    }
  }
}

TEST(VarintTest, MixedLengthWordsDecodeInOrder) {
  Rng rng(3);
  const std::vector<std::uint64_t> values = boundaries();
  std::vector<std::uint64_t> as;
  std::vector<std::uint64_t> bs;
  for (int i = 0; i < 5'000; ++i) {
    const auto pick = [&] {
      return rng.next_below(4) == 0 ? values[rng.next_below(values.size())]
                                    : rng.next_below(1u << 12);
    };
    as.push_back(pick());
    bs.push_back(pick());
  }
  // Room for the last word's full write, as a store keeps for its open
  // buffer; the words written take less.
  std::vector<std::uint8_t> buf(as.size() * kLongBytes + kPadBytes);
  std::uint8_t* at = buf.data();
  for (std::size_t i = 0; i < as.size(); ++i) at = put_pair(at, as[i], bs[i]);
  const std::uint8_t* read = buf.data();
  for (std::size_t i = 0; i < as.size(); ++i) {
    const Pair p = get_pair(read);
    ASSERT_EQ(p.a, as[i]) << "word " << i;
    ASSERT_EQ(p.b, bs[i]) << "word " << i;
    read += p.bytes;
  }
  EXPECT_EQ(read, at);
}

TEST(VarintTest, ZigzagMapsSmallDifferencesOfEitherSignToSmallValues) {
  const auto diff = [](std::int64_t d) {
    return static_cast<std::uint64_t>(d);
  };
  EXPECT_EQ(zigzag(diff(0)), 0u);
  EXPECT_EQ(zigzag(diff(-1)), 1u);
  EXPECT_EQ(zigzag(diff(1)), 2u);
  EXPECT_EQ(zigzag(diff(-64)), 127u);
  EXPECT_EQ(zigzag(diff(64)), 128u);
  EXPECT_EQ(zigzag(diff(std::numeric_limits<std::int64_t>::max())), kMax - 1);
  EXPECT_EQ(zigzag(diff(std::numeric_limits<std::int64_t>::min())), kMax);
  for (const std::uint64_t v : boundaries()) {
    EXPECT_EQ(unzigzag(zigzag(v)), v) << v;
    EXPECT_EQ(zigzag(unzigzag(v)), v) << v;
    EXPECT_EQ(unzigzag(zigzag(0 - v)), 0 - v) << v;
  }
}

}  // namespace
}  // namespace hq::varint
