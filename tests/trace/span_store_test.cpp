// The compact span store against a 32-byte reference model: the plain
// std::vector<Span> the recorder kept before spans were packed. Seeded
// streams mix out-of-order ends (some before the open chunk's base), end
// offsets and durations of 2^32 ns and more, zero-length spans, lanes and
// app ids at -1 / INT32_MIN / INT32_MAX, more than 65,536 distinct
// (lane, kind, name) triples, exact chunk boundaries, clear() and moves.
// Every span must read back field for field, by index and by iteration, and
// every query the recorder answers must agree with the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
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
  const AppIndex index(r);
  for (const std::int32_t app : apps) {
    const std::vector<Span> want =
        filtered(ref, [app](const Span& s) { return s.app_id == app; });
    expect_same_spans(r.by_app(app), want, "by_app");
    const AppSpans indexed = index.spans_for(app);
    expect_same_spans(std::vector<Span>(indexed.begin(), indexed.end()), want,
                      "AppIndex::spans_for");
    ASSERT_EQ(indexed.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_TRUE(same_span(indexed[k], want[k])) << "spans_for()[" << k << "]";
    }
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

/// Feeds `n` spans of a seeded stream into both stores. Ends mostly move
/// forward by a few ns, as they do when spans are recorded at completion;
/// now and then one lands earlier (sometimes far before the chunk base),
/// jumps forward by 2^32 ns or more, or lasts 2^32 ns or more. A tenth are
/// zero-length. Lanes and app ids mix small values with -1 and the 32-bit
/// extremes.
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
      end = clock - rng.next_below(TimeNs{1} << 36);  // before the base
    } else if (roll < 45) {
      end = clock + kGap32 - 1 + rng.next_below(3);  // offset overflow
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
      duration = kGap32 - 2 + rng.next_below(4);  // around the escape
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
  }
}

TEST(SpanStoreTest, MonotoneStreamFillsExactChunks) {
  // Chunks close at exactly kChunkSpans records: the spans either side of
  // each boundary (a zero-length one opening every chunk) read back, and
  // the store costs 16 bytes per span plus the dictionary.
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
  // Three full chunks, the chunk table and the dictionary.
  EXPECT_LE(r.storage_bytes(), 16 * n + 256 + r.dictionary_bytes());
}

TEST(SpanStoreTest, EndsBeforeTheBaseOpenChunks) {
  // Each span ends before the previous one began, so every span opens a
  // chunk and span(i) must find its chunk by search.
  Recorder r;
  Reference ref;
  TimeNs end = TimeNs{1} << 50;
  for (int i = 0; i < 300; ++i) {
    add(r, ref, i, -i, SpanKind::MemcpyHtoD, "h", end - 5, end);
    end -= 6 + static_cast<TimeNs>(i % 2);
  }
  add(r, ref, 0, 0, SpanKind::Kernel, "k", 0, 0);  // zero at time zero
  expect_matches(r, ref);
}

TEST(SpanStoreTest, DurationsAndOffsetsAtThe32BitEdge) {
  Recorder r;
  Reference ref;
  const DurationNs durations[] = {0,         1,           kGap32 - 2,
                                  kGap32 - 1, kGap32,     kGap32 + 1,
                                  TimeNs{1} << 50, std::numeric_limits<TimeNs>::max()};
  TimeNs end = 0;
  for (const DurationNs d : durations) {
    end = std::max(end + kGap32 - 1, d);
    add(r, ref, kMax32, kMin32, SpanKind::HostCompute, "long", end - d, end);
    add(r, ref, kMin32, kMax32, SpanKind::LockWait, "wait", end, end);
    end += kGap32;  // an end offset of exactly 2^32 from the base
    add(r, ref, -1, -1, SpanKind::Kernel, "k", end - d % 1000, end);
  }
  expect_matches(r, ref);
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
  feed_stream(r, none, 13, 5'000);
  expect_matches(r, none);
  feed_stream(moved, ref, 14, 5'000);
  expect_matches(moved, ref);

  Recorder assigned;
  assigned = std::move(moved);
  expect_matches(assigned, ref);
  expect_matches(moved, Reference{});
}

TEST(SpanStoreTest, StorageStaysWithinSixteenBytesPerSpanPlusSlack) {
  // A short trace starts with a small chunk, and a long one recorded at
  // completion (ends a little out of order now and then) costs 16 bytes per
  // span plus one chunk of slack and its dictionary. A return to 32-byte
  // spans fails both.
  Recorder small;
  for (int i = 0; i < 10; ++i) {
    small.add(i % 2, 0, SpanKind::Kernel, "k", static_cast<TimeNs>(i),
              static_cast<TimeNs>(i) + 1);
  }
  EXPECT_LT(small.storage_bytes(), 1024u);

  Recorder r;
  Reference ref;
  Rng rng(21);
  TimeNs clock = 1'000'000;
  for (int i = 0; i < 50'000; ++i) {
    clock += rng.next_below(300);
    const TimeNs end = clock - rng.next_below(rng.next_below(20) == 0 ? 400 : 1);
    add(r, ref, static_cast<std::int32_t>(rng.next_below(16)),
        static_cast<std::int32_t>(rng.next_below(500)),
        static_cast<SpanKind>(rng.next_below(5)),
        "k" + std::to_string(rng.next_below(8)), end - rng.next_below(5000),
        end);
  }
  expect_matches(r, ref);
  EXPECT_LE(r.storage_bytes(),
            16 * r.size() + 64 * 1024 + r.dictionary_bytes());
}

}  // namespace
}  // namespace hq::trace
