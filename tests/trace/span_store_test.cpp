// The varint span store against a 32-byte reference model: the plain
// std::vector<Span> the recorder kept before spans were packed. Seeded
// streams mix ends that go backwards (a little, or by up to 2^63 ns), end
// jumps and durations of 2^32 ns and more up to 2^64 - 1, zero-length spans,
// lanes and app ids at -1 / INT32_MIN / INT32_MAX, more than 65,536 distinct
// (lane, kind, name) triples, every chunk boundary, clear(), moves and
// re-recorded copies. Every span must read back field for field, by index
// and by iteration, every query the recorder answers must agree with the
// reference, and the store must cost no more than the LEB128 bytes of its
// four fields per span plus slack and its dictionary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace hq::trace {
namespace {

constexpr std::int32_t kMin32 = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kMax32 = std::numeric_limits<std::int32_t>::max();
constexpr TimeNs kGap32 = TimeNs{1} << 32;

/// The recorder as it stored spans before the compact layout.
struct Reference {
  std::vector<Span> spans;
};

/// Adds one span to both stores (the name is interned in the recorder, so
/// the reference's NameIds are the recorder's).
void add(Recorder& r, Reference& ref, std::int32_t lane, std::int32_t app,
         SpanKind kind, const std::string& name, TimeNs begin, TimeNs end) {
  const Span s{lane, app, kind, r.intern(name), begin, end};
  r.add(s);
  ref.spans.push_back(s);
}

/// trace::digest's definition applied to the reference vector.
std::uint64_t reference_digest(const Recorder& r, const Reference& ref) {
  Fnv1a64 h;
  h.mix_u64(ref.spans.size());
  for (const Span& s : ref.spans) {
    h.mix_i64(s.lane);
    h.mix_i64(s.app_id);
    h.mix_u64(static_cast<std::uint64_t>(s.kind));
    h.mix_string(r.name_of(s.name));
    h.mix_u64(s.begin);
    h.mix_u64(s.end);
  }
  return h.value();
}

::testing::AssertionResult same_span(const Span& got, const Span& want) {
  if (got.lane == want.lane && got.app_id == want.app_id &&
      got.kind == want.kind && got.name == want.name &&
      got.begin == want.begin && got.end == want.end) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got {lane " << got.lane << ", app " << got.app_id << ", kind "
         << static_cast<int>(got.kind) << ", name " << got.name << ", "
         << got.begin << ".." << got.end << "} want {lane " << want.lane
         << ", app " << want.app_id << ", kind "
         << static_cast<int>(want.kind) << ", name " << want.name << ", "
         << want.begin << ".." << want.end << "}";
}

template <typename Pred>
std::vector<Span> filtered(const Reference& ref, Pred pred) {
  std::vector<Span> out;
  std::copy_if(ref.spans.begin(), ref.spans.end(), std::back_inserter(out),
               pred);
  return out;
}

void expect_same_spans(const std::vector<Span>& got,
                       const std::vector<Span>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_span(got[i], want[i])) << what << " [" << i << "]";
  }
}

/// Compares every read path of `r` with the reference.
void expect_matches(const Recorder& r, const Reference& ref) {
  ASSERT_EQ(r.size(), ref.spans.size());
  ASSERT_EQ(r.empty(), ref.spans.empty());
  for (std::size_t i = 0; i < ref.spans.size(); ++i) {
    ASSERT_TRUE(same_span(r.span(i), ref.spans[i])) << "span(" << i << ")";
  }
  std::size_t i = 0;
  for (const Span& s : r) {
    ASSERT_LT(i, ref.spans.size());
    ASSERT_TRUE(same_span(s, ref.spans[i])) << "iterated span " << i;
    ++i;
  }
  ASSERT_EQ(i, ref.spans.size());
  EXPECT_EQ(digest(r), reference_digest(r, ref));

  // Query keys: the first 32 distinct ids in recording order, the extremes
  // and one id no span carries.
  std::set<std::int32_t> apps = {-1, kMin32, kMax32, 12345};
  std::set<std::int32_t> lanes = apps;
  std::set<std::int32_t> first_apps;
  std::set<std::int32_t> first_lanes;
  for (const Span& s : ref.spans) {
    if (first_apps.size() < 32) first_apps.insert(s.app_id);
    if (first_lanes.size() < 32) first_lanes.insert(s.lane);
  }
  apps.insert(first_apps.begin(), first_apps.end());
  lanes.insert(first_lanes.begin(), first_lanes.end());
  for (const std::int32_t app : apps) {
    const std::vector<Span> want =
        filtered(ref, [app](const Span& s) { return s.app_id == app; });
    expect_same_spans(r.by_app(app), want, "by_app");
  }
  for (const std::int32_t lane : lanes) {
    expect_same_spans(
        r.by_lane(lane),
        filtered(ref, [lane](const Span& s) { return s.lane == lane; }),
        "by_lane");
  }
  for (const SpanKind kind :
       {SpanKind::MemcpyHtoD, SpanKind::MemcpyDtoH, SpanKind::Kernel,
        SpanKind::HostCompute, SpanKind::LockWait}) {
    expect_same_spans(
        r.by_kind(kind),
        filtered(ref, [kind](const Span& s) { return s.kind == kind; }),
        "by_kind");
  }

  if (ref.spans.empty()) {
    EXPECT_FALSE(r.min_time().has_value());
    EXPECT_FALSE(r.max_time().has_value());
  } else {
    TimeNs lo = ref.spans.front().begin;
    TimeNs hi = ref.spans.front().end;
    for (const Span& s : ref.spans) {
      lo = std::min(lo, s.begin);
      hi = std::max(hi, s.end);
    }
    EXPECT_EQ(r.min_time(), lo);
    EXPECT_EQ(r.max_time(), hi);
  }
}

/// LEB128 length of v, counted the slow way.
std::size_t leb128_bytes(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 128) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// A signed difference (modulo 2^64) folded to small unsigned values:
/// 0, -1, 1, -2 ... -> 0, 1, 2, 3.
std::uint64_t folded(std::uint64_t diff) {
  return (diff >> 63) != 0 ? 2 * ~diff + 1 : 2 * diff;
}

/// The bytes the layout needs for the reference's spans: per span, a word
/// of {folded end delta, duration} and one of {folded 32-bit app delta,
/// shape index}, each as long as the two LEB128 varints it holds (17 bytes
/// past 8), with a chunk's first span as its own base.
std::size_t encoded_bytes(const Reference& ref) {
  std::map<std::tuple<std::int32_t, SpanKind, NameId>, std::uint64_t> shapes;
  const auto word = [](std::uint64_t a, std::uint64_t b) -> std::size_t {
    const std::size_t n = leb128_bytes(a) + leb128_bytes(b);
    return n <= 8 ? n : 17;
  };
  std::size_t total = 0;
  const Span* prev = nullptr;
  for (std::size_t i = 0; i < ref.spans.size(); ++i) {
    const Span& s = ref.spans[i];
    if (i % Recorder::kChunkSpans == 0) prev = &s;
    const std::uint64_t shape =
        shapes.emplace(std::tuple{s.lane, s.kind, s.name}, shapes.size())
            .first->second;
    const auto app_delta = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(s.app_id) -
        static_cast<std::uint32_t>(prev->app_id));
    total += word(folded(s.end - prev->end), s.end - s.begin) +
             word(folded(static_cast<std::uint64_t>(std::int64_t{app_delta})),
                  shape);
    prev = &s;
  }
  return total;
}

/// Chunks `n` spans fill, each padded for its last 8-byte load.
std::size_t chunk_padding(std::size_t n) {
  return (n + Recorder::kChunkSpans - 1) / Recorder::kChunkSpans * 6;
}

/// Feeds `n` spans of a seeded stream into both stores. Ends mostly move
/// forward by a few ns, as they do when spans are recorded at completion;
/// now and then one lands earlier (sometimes by up to 2^36 ns), jumps
/// forward by 2^32 ns or more, or lasts 2^32 ns or more (some up to their
/// end, so they begin at 0). A tenth are zero-length. Lanes and app ids mix
/// small values with -1 and the 32-bit extremes.
void feed_stream(Recorder& r, Reference& ref, std::uint64_t seed,
                 std::size_t n) {
  Rng rng(seed);
  const std::int32_t extremes[] = {-1, kMin32, kMax32};
  const auto pick_id = [&](std::int64_t small) {
    return rng.next_below(8) == 0
               ? extremes[rng.next_below(3)]
               : static_cast<std::int32_t>(rng.next_in(0, small));
  };
  TimeNs clock = TimeNs{1} << 40;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t roll = rng.next_below(1000);
    TimeNs end = clock;
    if (roll < 30) {
      end = clock - rng.next_below(500);  // a little out of order
    } else if (roll < 40) {
      end = clock - rng.next_below(TimeNs{1} << 36);  // far back
    } else if (roll < 45) {
      end = clock + kGap32 - 1 + rng.next_below(3);  // a 2^32 ns jump
    } else if (roll < 48) {
      end = clock + (TimeNs{1} << 40);
    } else {
      end = clock + rng.next_below(200);
    }
    clock = std::max(clock, end);
    DurationNs duration = 0;
    const std::uint64_t shape = rng.next_below(100);
    if (shape < 10) {
      duration = 0;
    } else if (shape < 13) {
      duration = kGap32 - 2 + rng.next_below(4);  // around 2^32
    } else if (shape < 15) {
      duration = end;  // begins at 0
    } else {
      duration = rng.next_below(5000);
    }
    duration = std::min(duration, end);
    const auto kind = static_cast<SpanKind>(rng.next_below(5));
    add(r, ref, pick_id(40), pick_id(200), kind,
        "k" + std::to_string(rng.next_below(12)), end - duration, end);
  }
}

TEST(SpanStoreTest, SeededStreamsMatchTheReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    Recorder r;
    Reference ref;
    feed_stream(r, ref, seed, 20'000);
    expect_matches(r, ref);
    EXPECT_GE(r.storage_bytes(), encoded_bytes(ref));
  }
}

TEST(SpanStoreTest, MonotoneStreamFillsExactChunks) {
  // Full chunks hold exactly kChunkSpans spans and are trimmed to their
  // bytes plus padding: the spans either side of each boundary (a
  // zero-length one opening every chunk) read back, and three full chunks
  // of one-byte fields cost 4 bytes per span plus padding, the chunk table
  // and the dictionary.
  const std::size_t n = 3 * Recorder::kChunkSpans;
  Recorder r;
  Reference ref;
  for (std::size_t i = 0; i < n; ++i) {
    const TimeNs end = 1000 + 10 * i;
    const DurationNs duration = i % Recorder::kChunkSpans == 0 ? 0 : 7;
    add(r, ref, static_cast<std::int32_t>(i % 3), static_cast<std::int32_t>(i),
        SpanKind::Kernel, "k", end - duration, end);
    if (i + 1 == Recorder::kChunkSpans || i + 1 == 2 * Recorder::kChunkSpans) {
      expect_matches(r, ref);
    }
  }
  expect_matches(r, ref);
  EXPECT_EQ(encoded_bytes(ref), 4 * n);
  EXPECT_GE(r.storage_bytes(), 4 * n + chunk_padding(n));
  EXPECT_LE(r.storage_bytes(),
            4 * n + chunk_padding(n) + 256 + r.dictionary_bytes());
}

TEST(SpanStoreTest, EndsThatGoBackwardsReadBack) {
  // Each span ends before the previous one began, over several chunks, so
  // every end delta is negative; then ends swing between 0 and 2^64 - 1,
  // the largest deltas of either sign.
  Recorder r;
  Reference ref;
  TimeNs end = TimeNs{1} << 50;
  for (std::size_t i = 0; i < 2 * Recorder::kChunkSpans + 300; ++i) {
    add(r, ref, static_cast<std::int32_t>(i % 9), -static_cast<std::int32_t>(i),
        SpanKind::MemcpyHtoD, "h", end - 5, end);
    const TimeNs jump = i % 100 == 0 ? TimeNs{1} << 40 : 0;
    end -= 6 + static_cast<TimeNs>(i % 2) + jump;
  }
  add(r, ref, 0, 0, SpanKind::Kernel, "k", 0, 0);  // zero at time zero
  const TimeNs top = std::numeric_limits<TimeNs>::max();
  for (int i = 0; i < 6; ++i) {
    add(r, ref, 1, 1, SpanKind::Kernel, "k", top - 1, top);
    add(r, ref, 1, 1, SpanKind::Kernel, "k", 0, 1);
    add(r, ref, 1, 1, SpanKind::Kernel, "k", 0, 0);
  }
  expect_matches(r, ref);
  EXPECT_GE(r.storage_bytes(), encoded_bytes(ref));
}

TEST(SpanStoreTest, DurationsAndOffsetsAtThe32BitEdge) {
  // Durations and end jumps either side of 2^32 (where a fixed 32-bit field
  // would overflow), up to 2^63 and 2^64 - 1: the varints have no edge
  // there, and a word past 8 bytes takes the long form.
  Recorder r;
  Reference ref;
  const TimeNs top = std::numeric_limits<TimeNs>::max();
  const DurationNs durations[] = {0,
                                  1,
                                  kGap32 - 2,
                                  kGap32 - 1,
                                  kGap32,
                                  kGap32 + 1,
                                  TimeNs{1} << 50,
                                  (TimeNs{1} << 63) - 1,
                                  TimeNs{1} << 63,
                                  (TimeNs{1} << 63) + 1,
                                  top};
  TimeNs end = 0;
  for (const DurationNs d : durations) {
    end = std::max(end + kGap32 - 1, d);
    add(r, ref, kMax32, kMin32, SpanKind::HostCompute, "long", end - d, end);
    add(r, ref, kMin32, kMax32, SpanKind::LockWait, "wait", end, end);
    if (end <= top - kGap32) end += kGap32;  // an end jump of exactly 2^32
    add(r, ref, -1, -1, SpanKind::Kernel, "k", end - d % 1000, end);
  }
  expect_matches(r, ref);
  EXPECT_GE(r.storage_bytes(), encoded_bytes(ref));
}

TEST(SpanStoreTest, AppIdsAlternatingAtTheExtremes) {
  // -1, INT32_MIN and INT32_MAX in turn across chunk boundaries. App deltas
  // wrap modulo 2^32, so INT32_MAX -> INT32_MIN is a step of +1 and the
  // whole stream's fields take one byte each.
  Recorder r;
  Reference ref;
  const std::int32_t apps[] = {-1, kMin32, kMax32, kMin32, kMax32, -1};
  const std::size_t n = 3 * Recorder::kChunkSpans + 17;
  for (std::size_t i = 0; i < n; ++i) {
    const TimeNs end = 5000 + 3 * i;
    add(r, ref, 2, apps[i % std::size(apps)], SpanKind::MemcpyDtoH, "d",
        end - 2, end);
  }
  expect_matches(r, ref);
  for (const std::int32_t app : {-1, kMin32, kMax32}) {
    std::size_t want = 0;
    for (const Span& s : ref.spans) want += s.app_id == app ? 1 : 0;
    EXPECT_EQ(r.by_app(app).size(), want) << app;
  }
  std::size_t wide = 0;  // the -1 <-> INT32_MIN steps take 5 bytes
  for (std::size_t i = 1; i < n; ++i) {
    const std::int32_t a = apps[(i - 1) % std::size(apps)];
    const std::int32_t b = apps[i % std::size(apps)];
    if (i % Recorder::kChunkSpans != 0 && (a == -1) != (b == -1)) wide += 4;
  }
  EXPECT_EQ(encoded_bytes(ref), 4 * n + wide);
}

TEST(SpanStoreTest, MoreThan65536DistinctTriples) {
  // Triples that differ only in the lane, only in the kind or only in the
  // name must stay distinct dictionary entries.
  Recorder r;
  Reference ref;
  for (std::int32_t i = 0; i < 70'000; ++i) {
    add(r, ref, i, i % 7, static_cast<SpanKind>(i % 5),
        "n" + std::to_string(i % 3), static_cast<TimeNs>(i),
        static_cast<TimeNs>(i) + 1);
  }
  for (std::int32_t i = 0; i < 70'000; i += 7) {
    add(r, ref, i, 0, static_cast<SpanKind>((i + 1) % 5),
        "n" + std::to_string((i + 1) % 3), 70'000, 70'000);
  }
  expect_matches(r, ref);
}

TEST(SpanStoreTest, SpanAtEveryChunkBoundary) {
  // span(i) either side of every boundary, checked as each chunk fills and
  // when the next one opens, and iterators that cross the boundary.
  Recorder r;
  Reference ref;
  Rng rng(17);
  TimeNs clock = 1'000'000;
  const std::size_t chunks = 6;
  const auto check_near = [&](std::size_t boundary) {
    for (std::size_t i = boundary > 2 ? boundary - 2 : 0;
         i < std::min(boundary + 2, ref.spans.size()); ++i) {
      ASSERT_TRUE(same_span(r.span(i), ref.spans[i])) << "span(" << i << ")";
    }
  };
  for (std::size_t i = 0; i < chunks * Recorder::kChunkSpans + 1; ++i) {
    clock += rng.next_below(700);
    const TimeNs end = clock - rng.next_below(50);
    add(r, ref, static_cast<std::int32_t>(rng.next_below(6)),
        static_cast<std::int32_t>(rng.next_in(-1, 40)),
        static_cast<SpanKind>(rng.next_below(5)), "k",
        end - rng.next_below(end), end);
    const std::size_t size = i + 1;
    if (size % Recorder::kChunkSpans <= 1) {
      for (std::size_t k = 1; k * Recorder::kChunkSpans <= size; ++k) {
        check_near(k * Recorder::kChunkSpans);
      }
      ASSERT_TRUE(same_span(r.span(size - 1), ref.spans.back()));
    }
  }
  expect_matches(r, ref);
  // A copy of an iterator decodes on its own: advancing one across a
  // boundary leaves the other where it was.
  Recorder::Iterator it = r.begin();
  for (std::size_t i = 0; i + 1 < Recorder::kChunkSpans; ++i) ++it;
  const Recorder::Iterator before = it;
  ++it;
  ++it;
  EXPECT_TRUE(same_span(*before, ref.spans[Recorder::kChunkSpans - 1]));
  EXPECT_TRUE(same_span(*it, ref.spans[Recorder::kChunkSpans + 1]));
  EXPECT_FALSE(before == it);
}

TEST(SpanStoreTest, ClearedAndMovedFromRecordersAreEmptyAndReusable) {
  Recorder r;
  Reference ref;
  feed_stream(r, ref, 11, 5'000);
  r.clear();
  ref.spans.clear();
  expect_matches(r, ref);
  EXPECT_EQ(r.storage_bytes(), 0u);
  feed_stream(r, ref, 12, 5'000);
  expect_matches(r, ref);

  Recorder moved = std::move(r);
  expect_matches(moved, ref);
  Reference none;
  expect_matches(r, none);  // NOLINT(bugprone-use-after-move): empty by contract
  EXPECT_EQ(r.storage_bytes(), 0u);
  feed_stream(r, none, 13, 5'000);
  expect_matches(r, none);
  feed_stream(moved, ref, 14, 5'000);
  expect_matches(moved, ref);

  Recorder assigned;
  assigned = std::move(moved);
  expect_matches(assigned, ref);
  expect_matches(moved, Reference{});
}

TEST(SpanStoreTest, CopiesReadBackLikeTheOriginal) {
  // A recorder is move-only (its name table holds views into itself), so it
  // is copied by recording its spans again: the copy encodes to the same
  // bytes, digests the same, and outlives the original.
  // copies of the decoded spans, so it outlives its recorder too.
  auto original = std::make_unique<Recorder>();
  Reference ref;
  feed_stream(*original, ref, 21, 6'000);
  Recorder copy;
  for (const Span s : *original) {
    copy.add(s.lane, s.app_id, s.kind, original->name_of(s.name), s.begin,
             s.end);
  }
  const std::uint64_t want_digest = digest(*original);
  EXPECT_EQ(copy.storage_bytes(), original->storage_bytes());
  original.reset();

  EXPECT_EQ(digest(copy), want_digest);
  ASSERT_EQ(copy.size(), ref.spans.size());
  std::size_t i = 0;
  for (const Span s : copy) {
    const Span& want = ref.spans[i++];
    ASSERT_EQ(std::tuple(s.lane, s.app_id, s.kind, s.begin, s.end),
              std::tuple(want.lane, want.app_id, want.kind, want.begin,
                         want.end))
        << "copied span " << i - 1;
  }
  for (const std::int32_t app : {-1, 0, 7, kMin32, kMax32}) {
    const std::vector<Span> want =
        filtered(ref, [app](const Span& s) { return s.app_id == app; });
    expect_same_spans(copy.by_app(app), want, "by_app of the copy");
  }
}

TEST(SpanStoreTest, StorageStaysWithinSevenBytesPerSpanPlusSlack) {
  // A short trace starts with a small chunk. A long one shaped like a
  // device's (spans recorded at completion, ends a little out of order now
  // and then, a few lanes, apps in runs, durations of microseconds) costs
  // its varint bytes plus chunk padding, the open chunk's slack and the
  // dictionary, which is under 7 bytes per span. A return to 16-byte
  // records fails both bounds.
  Recorder small;
  for (int i = 0; i < 10; ++i) {
    small.add(i % 2, 0, SpanKind::Kernel, "k", static_cast<TimeNs>(i),
              static_cast<TimeNs>(i) + 1);
  }
  EXPECT_LT(small.storage_bytes(), 512u);

  Recorder r;
  Reference ref;
  Rng rng(21);
  TimeNs clock = 1'000'000;
  std::int32_t app = 0;
  const std::size_t n = 50'000;
  for (std::size_t i = 0; i < n; ++i) {
    clock += rng.next_below(120);
    if (rng.next_below(4) == 0) {
      app = static_cast<std::int32_t>(rng.next_below(24));
    }
    const TimeNs late = rng.next_below(20) == 0 ? 400 : 1;
    const TimeNs end = clock - rng.next_below(late);
    add(r, ref, static_cast<std::int32_t>(rng.next_below(8)), app,
        static_cast<SpanKind>(rng.next_below(5)),
        "k" + std::to_string(rng.next_below(4)), end - rng.next_below(16'000),
        end);
  }
  expect_matches(r, ref);
  const std::size_t slack = 16 * 1024;
  EXPECT_LE(r.storage_bytes(), encoded_bytes(ref) + chunk_padding(n) + slack +
                                   r.dictionary_bytes());
  EXPECT_LE(r.storage_bytes(), 7 * n + slack + r.dictionary_bytes());
}

}  // namespace
}  // namespace hq::trace
