// The varint Series store against a 16-byte reference model: the original
// vector-of-{time, value} series with the same sampling rules. Seeded random
// streams mix same-instant rewrites, unchanged drops, 0.0 / -0.0 (equal under
// == but different bits), NaNs, time gaps of 2^32 ns and more, chunk
// boundaries and dictionary indices of 1 to 3 varint bytes; every stored
// point must decode bit for bit, and last(), peak(), value_at and the fleet
// series merge must agree with the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/rollup.hpp"

namespace hq::obs {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The series as it was stored before the packed layouts: one 16-byte
/// point per event, with the same sampling rules.
struct ReferenceSeries {
  std::vector<Series::Point> points;
  double peak = 0.0;

  void sample(TimeNs t, double value) {
    if (!points.empty()) {
      if (points.back().time == t) {
        points.back().value = value;
        peak = std::max(peak, value);
        return;
      }
      if (points.back().value == value) return;
    }
    points.push_back(Series::Point{t, value});
    peak = std::max(peak, value);
  }
  double last() const { return points.empty() ? 0.0 : points.back().value; }
  double value_at(TimeNs t) const {
    const auto it = std::upper_bound(
        points.begin(), points.end(), t,
        [](TimeNs time, const Series::Point& p) { return time < p.time; });
    return it == points.begin() ? 0.0 : std::prev(it)->value;
  }
};

constexpr TimeNs kGap32 = TimeNs{1} << 32;

/// Samples `n` events of a seeded random stream into both stores. Times
/// step by 0 (a same-instant rewrite), a few ns, or now and then by a gap
/// of 2^32 - 1, 2^32 or more ns; values come from a small pool (so unchanged
/// samples drop), signed zeros, two NaN payloads, and fresh random doubles.
void sample_random(Rng& rng, std::size_t n, Series& s, ReferenceSeries& ref) {
  const double nan_a = std::numeric_limits<double>::quiet_NaN();
  const double nan_b = std::bit_cast<double>(bits(nan_a) | 0x1234);
  const double pool[] = {0.0, -0.0, 1.0, 2.5, nan_a, nan_b, -7.25};
  TimeNs t = rng.next_below(1000);
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    switch (rng.next_below(5)) {
      case 0: v = ref.last(); break;  // unchanged (or equal under ==)
      case 1: v = rng.next_double_in(-1e6, 1e6); break;
      default: v = pool[rng.next_below(std::size(pool))]; break;
    }
    s.sample(t, v);
    ref.sample(t, v);
    switch (rng.next_below(200)) {
      case 0: t += kGap32 - 1; break;  // a 5-byte varint
      case 1: t += kGap32; break;
      case 2: t += 3 * kGap32 + rng.next_below(100); break;
      default: t += rng.next_below(4) * rng.next_below(400); break;
    }
  }
}

void expect_same(const Series& s, const ReferenceSeries& ref) {
  ASSERT_EQ(s.size(), ref.points.size());
  EXPECT_EQ(s.empty(), ref.points.empty());
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    const Series::Point p = s.point(i);
    ASSERT_EQ(p.time, ref.points[i].time) << "point " << i;
    ASSERT_EQ(bits(p.value), bits(ref.points[i].value)) << "point " << i;
  }
  std::size_t i = 0;
  for (Series::Cursor c(s); !c.done(); c.next(), ++i) {
    ASSERT_LT(i, ref.points.size());
    ASSERT_EQ(c.time(), ref.points[i].time) << "cursor " << i;
    ASSERT_EQ(bits(c.value()), bits(ref.points[i].value)) << "cursor " << i;
  }
  EXPECT_EQ(i, ref.points.size());
  EXPECT_EQ(bits(s.last()), bits(ref.last()));
  EXPECT_EQ(bits(s.peak()), bits(ref.peak));
}

/// value_at on every point, just before and after it, and before the
/// first point.
void expect_same_value_at(const Series& s, const ReferenceSeries& ref) {
  std::vector<TimeNs> probes = {0};
  for (const Series::Point& p : ref.points) {
    probes.push_back(p.time);
    probes.push_back(p.time + 1);
    if (p.time > 0) probes.push_back(p.time - 1);
  }
  for (const TimeNs t : probes) {
    ASSERT_EQ(bits(s.value_at(t)), bits(ref.value_at(t)))
        << "t " << t;
  }
}

TEST(SeriesStorageTest, RandomStreamsMatchTheReferenceBitForBit) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Series s;
    ReferenceSeries ref;
    // Short streams stay in the first chunk; long ones cross several.
    sample_random(rng, seed % 4 == 0 ? 20'000 : rng.next_below(600), s, ref);
    expect_same(s, ref);
    expect_same_value_at(s, ref);
  }
}

TEST(SeriesStorageTest, SignedZerosAndNansFollowTheSamplingRules) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Series s;
  ReferenceSeries ref;
  const auto both = [&](TimeNs t, double v) {
    s.sample(t, v);
    ref.sample(t, v);
  };
  both(0, 0.0);
  both(10, -0.0);  // == 0.0 at a new instant: dropped
  both(20, 1.0);
  both(20, -0.0);  // same-instant rewrite: kept with its sign bit
  both(30, 0.0);   // == -0.0: dropped
  both(40, nan);   // NaN != anything: stored
  both(50, nan);   // NaN != NaN: stored again
  both(50, 2.0);
  expect_same(s, ref);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(bits(s.point(1).value), bits(-0.0));
  EXPECT_TRUE(std::isnan(s.point(2).value));
  EXPECT_EQ(s.point(3).value, 2.0);
}

TEST(SeriesStorageTest, ChunkBoundariesAndLargeGaps) {
  Series s;
  ReferenceSeries ref;
  const auto both = [&](TimeNs t, double v) {
    s.sample(t, v);
    ref.sample(t, v);
  };
  // Exactly one full chunk, then one more point.
  TimeNs t = 5;
  for (std::size_t i = 0; i <= Series::kChunkPoints; ++i) {
    both(t, static_cast<double>(i % 3));
    t += 7;
  }
  // Gaps of 2^32 - 1, 2^32 and more ns inside the second chunk: a varint
  // holds any gap, so none of them closes it.
  const TimeNs base = ref.points[Series::kChunkPoints].time;
  both(base + kGap32 - 1, 9.0);
  both(base + kGap32, 10.0);
  both(base + kGap32 + 1, 11.0);
  for (int i = 0; i < 5; ++i) {
    t = ref.points.back().time + kGap32 * 2;
    both(t, 20.0 + i);
  }
  // A gap of 2^49 - 1 ns still fits an 8-byte point; 2^49 ns and more take
  // the long form.
  both(t + (TimeNs{1} << 49) - 1, 28.0);
  both(ref.points.back().time + (TimeNs{1} << 49), 29.0);
  both(ref.points.back().time + (TimeNs{1} << 63), 30.0);
  t = ref.points.back().time;
  for (std::size_t i = 0; i < Series::kChunkPoints + 3; ++i) {
    both(t += 1, static_cast<double>(i));
  }
  expect_same(s, ref);
  expect_same_value_at(s, ref);
}

TEST(SeriesStorageTest, LargeGapsCostVarintBytesNotChunks) {
  // 1,000 points, each 2^32 ns after the last: 5 bytes of time delta and 1
  // of index per point in one chunk, not one chunk per point.
  Series s;
  for (TimeNs i = 0; i < 1000; ++i) {
    s.sample(i * kGap32, static_cast<double>(i % 2));
  }
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_LE(s.storage_bytes(), 1000u * 6 * 3 / 2 + 512);
  EXPECT_EQ(s.point(999).time, 999 * kGap32);
  EXPECT_EQ(s.value_at(500 * kGap32 - 1), 1.0);
}

TEST(SeriesStorageTest, DictionaryIndicesOfOneTwoAndThreeVarintBytes) {
  // Value i + 0.5 takes dictionary index i + 1 (slot 0 is the open point),
  // so revisiting values 126.5, 127.5, 16382.5 and 16383.5 stores indices
  // 127 and 16383 (the largest of 1 and 2 bytes) and 128 and 16384 (the
  // smallest of 2 and 3 bytes).
  Series s;
  ReferenceSeries ref;
  const auto both = [&](TimeNs t, double v) {
    s.sample(t, v);
    ref.sample(t, v);
  };
  TimeNs t = 0;
  for (int i = 0; i < 20'000; ++i) both(t += 3, i + 0.5);
  for (const double v : {126.5, 0.5, 127.5, 16382.5, 16383.5, 19999.5, 126.5,
                         -1.0, 128.5, 16383.5}) {
    both(t += 1, v);
  }
  expect_same(s, ref);
  expect_same_value_at(s, ref);
}

TEST(SeriesStorageTest, PointAndValueAtEveryChunkBoundaryAndTheOpenPoint) {
  constexpr std::size_t kK = Series::kChunkPoints;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, kK - 1, kK, kK + 1, kK + 2,
        2 * kK - 1, 2 * kK, 2 * kK + 1, 3 * kK}) {
    SCOPED_TRACE("points " + std::to_string(n));
    Series s;
    ReferenceSeries ref;
    for (std::size_t i = 0; i < n; ++i) {
      const TimeNs t = 100 + 3 * i + (i / kK) * kGap32;
      s.sample(t, static_cast<double>(i));
      ref.sample(t, static_cast<double>(i));
    }
    ASSERT_EQ(s.size(), n);
    std::vector<std::size_t> at = {0, n - 1};
    for (std::size_t k = kK; k <= n; k += kK) {
      at.insert(at.end(), {k - 1, k, k + 1});
    }
    for (const std::size_t i : at) {
      if (i >= n) continue;
      const Series::Point want = ref.points[i];
      ASSERT_EQ(s.point(i).time, want.time) << "point " << i;
      ASSERT_EQ(s.point(i).value, want.value) << "point " << i;
      for (const TimeNs probe : {want.time - 1, want.time, want.time + 1}) {
        ASSERT_EQ(bits(s.value_at(probe)), bits(ref.value_at(probe)))
            << "point " << i << " t " << probe;
      }
    }
    // The open point is yielded last, and a same-instant rewrite reaches it.
    s.sample(ref.points.back().time, -1.0);
    ref.sample(ref.points.back().time, -1.0);
    expect_same(s, ref);
    EXPECT_EQ(s.value_at(ref.points.back().time), -1.0);
  }
}

TEST(SeriesStorageTest, MoreThan65536DistinctValues) {
  Series s;
  ReferenceSeries ref;
  Rng rng(99);
  for (std::size_t i = 0; i < 100'000; ++i) {
    // Distinct values, with every third sample revisiting an older one.
    const double v = i % 3 == 0 ? static_cast<double>(rng.next_below(i + 1))
                                : static_cast<double>(i) + 0.5;
    s.sample(i * 3, v);
    ref.sample(i * 3, v);
  }
  std::vector<std::uint64_t> distinct;
  for (const Series::Point& p : ref.points) distinct.push_back(bits(p.value));
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  ASSERT_GT(distinct.size(), 65'536u);
  expect_same(s, ref);
}

TEST(SeriesStorageTest, CopiesDecodeLikeTheOriginal) {
  Series s;
  ReferenceSeries ref;
  Rng rng(5);
  sample_random(rng, 9'000, s, ref);
  const Series copy = s;
  const ReferenceSeries copy_ref = ref;
  expect_same(copy, ref);
  // Sampling the source again (a same-instant rewrite of its open point,
  // then enough points to fill its open chunk and open more) leaves the
  // copy as it was.
  TimeNs t = ref.points.back().time;
  s.sample(t, 123.0);
  ref.sample(t, 123.0);
  for (std::size_t i = 0; i < 3 * Series::kChunkPoints; ++i) {
    const double v = static_cast<double>(rng.next_below(50));
    s.sample(t += 1 + rng.next_below(300), v);
    ref.sample(t, v);
  }
  expect_same(copy, copy_ref);
  expect_same_value_at(copy, copy_ref);
  expect_same(s, ref);
}

TEST(SeriesStorageTest, StaysWithinItsVarintBytesPlusItsDictionary) {
  Series small;
  for (TimeNs t = 0; t < 10; ++t) small.sample(t * 100, static_cast<double>(t));
  EXPECT_LT(small.storage_bytes(), 1024u);

  // Long series over a handful of values: the dictionary is negligible and
  // only the open chunk carries slack. A point whose time delta is under
  // 2^7 ns takes 2 bytes, one under 2^14 ns takes 3.
  for (const TimeNs step : {TimeNs{10}, TimeNs{2500}}) {
    Series big;
    for (TimeNs t = 0; t < 10 * Series::kChunkPoints; ++t) {
      big.sample(t * step, static_cast<double>(t % 7));
    }
    const std::size_t per_point = step < 128 ? 2 : 3;
    EXPECT_LE(big.storage_bytes(), big.size() * per_point + 4096)
        << "step " << step;
  }
}

TEST(SeriesStorageTest, RejectsTimeGoingBackwardsAcrossChunks) {
  Series s;
  for (TimeNs t = 0; t <= Series::kChunkPoints + 1; ++t) {
    s.sample(10 + t, static_cast<double>(t));  // fills one chunk, opens more
  }
  EXPECT_ANY_THROW(s.sample(10 + Series::kChunkPoints, 3.0));
  EXPECT_ANY_THROW(s.sample(9, 3.0));
  EXPECT_EQ(s.size(), Series::kChunkPoints + 2);
}

/// The merged series the fleet rollup must produce from `refs`: at every
/// event time, the sum in ascending device order from 0.0 of each device's
/// value in effect, re-sampled through the reference. A sum that meets a
/// NaN is that NaN, bit for bit: the first NaN in device order.
ReferenceSeries reference_sum(const std::vector<ReferenceSeries>& refs) {
  std::vector<TimeNs> times;
  for (const ReferenceSeries& r : refs) {
    for (const Series::Point& p : r.points) times.push_back(p.time);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  ReferenceSeries want;
  for (const TimeNs t : times) {
    double sum = 0.0;
    for (const ReferenceSeries& r : refs) {
      const double v = r.value_at(t);
      if (!std::isnan(sum)) sum = std::isnan(v) ? v : sum + v;
    }
    want.sample(t, sum);
  }
  return want;
}

/// The fleet merge (one cursor sweep over varint series) against the
/// reference sum.
TEST(SeriesStorageTest, FleetMergeMatchesTheReferenceSum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 31);
    const std::size_t devices = 1 + rng.next_below(5);
    FleetRollup rollup;
    std::vector<ReferenceSeries> refs(devices);
    for (std::size_t d = 0; d < devices; ++d) {
      auto reg = std::make_shared<MetricsRegistry>();
      sample_random(rng, rng.next_below(6'000), reg->series("power"),
                    refs[d]);
      rollup.add_device(static_cast<int>(d), "dev", reg);
    }
    const MetricsRegistry merged = rollup.merged();
    expect_same(std::get<Series>(merged.find("power")->metric),
                reference_sum(refs));
  }

  // NaN payloads in both operand orders: the merge carries the lower
  // device's NaN whichever payload it has, and a NaN meeting a number or
  // an infinity stays that NaN. x86 gives NaN + NaN the first operand's
  // payload, so a sweep that let the compiler commute its addition would
  // fail one of the two orders.
  const double nan_a = std::numeric_limits<double>::quiet_NaN();
  const double nan_b = std::bit_cast<double>(bits(nan_a) | 0x1234);
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool swapped : {false, true}) {
    SCOPED_TRACE(swapped ? "payload b first" : "payload a first");
    const double first = swapped ? nan_b : nan_a;
    const double second = swapped ? nan_a : nan_b;
    const std::vector<std::vector<Series::Point>> trajectories = {
        {{10, first}, {20, 1.0}, {30, first}, {50, -inf}},
        {{10, second}, {20, second}, {40, 2.0}, {50, inf}},
        {{15, second}, {25, first}, {45, inf}}};
    FleetRollup rollup;
    std::vector<ReferenceSeries> refs(trajectories.size());
    for (std::size_t d = 0; d < trajectories.size(); ++d) {
      auto reg = std::make_shared<MetricsRegistry>();
      for (const Series::Point& p : trajectories[d]) {
        reg->series("power").sample(p.time, p.value);
        refs[d].sample(p.time, p.value);
      }
      rollup.add_device(static_cast<int>(d), "dev", reg);
    }
    const ReferenceSeries want = reference_sum(refs);
    ASSERT_EQ(bits(want.value_at(10)), bits(first));
    ASSERT_EQ(bits(want.value_at(20)), bits(second));
    const MetricsRegistry merged = rollup.merged();
    expect_same(std::get<Series>(merged.find("power")->metric), want);
  }
}

}  // namespace
}  // namespace hq::obs
