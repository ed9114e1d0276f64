#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "tests/common/json_check.hpp"
#include "trace/ascii_timeline.hpp"
#include "trace/chrome_trace.hpp"

namespace hq::trace {
namespace {

void add_span(Recorder& r, std::int32_t lane, std::int32_t app, SpanKind kind,
              TimeNs begin, TimeNs end, std::string_view name = "s") {
  r.add(lane, app, kind, name, begin, end);
}

TEST(RecorderTest, AddAndQuery) {
  Recorder r;
  add_span(r, 0, 1, SpanKind::Kernel, 10, 20);
  add_span(r, 1, 1, SpanKind::MemcpyHtoD, 0, 5);
  add_span(r, 0, 2, SpanKind::MemcpyDtoH, 30, 40);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.by_app(1).size(), 2u);
  EXPECT_EQ(r.by_kind(SpanKind::Kernel).size(), 1u);
  EXPECT_EQ(r.by_lane(0).size(), 2u);
  EXPECT_EQ(*r.min_time(), 0u);
  EXPECT_EQ(*r.max_time(), 40u);
}

TEST(RecorderTest, EmptyExtentsAreNullopt) {
  Recorder r;
  EXPECT_FALSE(r.min_time().has_value());
  EXPECT_FALSE(r.max_time().has_value());
}

TEST(RecorderTest, InvertedSpanThrows) {
  Recorder r;
  EXPECT_THROW(add_span(r, 0, 0, SpanKind::Kernel, 20, 10), hq::Error);
}

TEST(RecorderTest, ZeroLengthSpanAllowed) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::Kernel, 10, 10);
  EXPECT_EQ(r.span(0).duration(), 0u);
}

TEST(SpanKindTest, Names) {
  EXPECT_STREQ(span_kind_name(SpanKind::MemcpyHtoD), "HtoD");
  EXPECT_STREQ(span_kind_name(SpanKind::MemcpyDtoH), "DtoH");
  EXPECT_STREQ(span_kind_name(SpanKind::Kernel), "kernel");
}

TEST(AsciiTimelineTest, EmptyRecorderRendersEmpty) {
  Recorder r;
  EXPECT_EQ(render_ascii_timeline(r), "");
}

TEST(AsciiTimelineTest, LanesRenderWithGlyphs) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::MemcpyHtoD, 0, 50);
  add_span(r, 0, 0, SpanKind::Kernel, 50, 100);
  add_span(r, 1, 1, SpanKind::MemcpyDtoH, 25, 75);
  AsciiTimelineOptions opt;
  opt.width = 20;
  const std::string out = render_ascii_timeline(r, opt);
  EXPECT_NE(out.find("Stream 0"), std::string::npos);
  EXPECT_NE(out.find("Stream 1"), std::string::npos);
  EXPECT_NE(out.find('H'), std::string::npos);
  EXPECT_NE(out.find('K'), std::string::npos);
  EXPECT_NE(out.find('D'), std::string::npos);
}

TEST(AsciiTimelineTest, TinySpanStillVisible) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::Kernel, 0, 1);
  add_span(r, 0, 0, SpanKind::MemcpyHtoD, 1000000, 2000000);
  AsciiTimelineOptions opt;
  opt.width = 50;
  const std::string out = render_ascii_timeline(r, opt);
  EXPECT_NE(out.find('K'), std::string::npos);
}

TEST(AsciiTimelineTest, KernelGlyphWinsOverlappedCell) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::LockWait, 0, 100);
  add_span(r, 0, 0, SpanKind::Kernel, 0, 100);
  AsciiTimelineOptions opt;
  opt.width = 10;
  const std::string out = render_ascii_timeline(r, opt);
  // Examine only the data row for stream 0 (the legend also contains 'w').
  const std::size_t row_start = out.find("Stream 0");
  ASSERT_NE(row_start, std::string::npos);
  const std::string row = out.substr(row_start, out.find('\n', row_start) - row_start);
  EXPECT_NE(row.find('K'), std::string::npos);
  EXPECT_EQ(row.find('w'), std::string::npos);
}

TEST(AsciiTimelineTest, LaneLabelBaseOffsetsLabels) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::Kernel, 0, 10);
  AsciiTimelineOptions opt;
  opt.lane_label_base = 34;  // match the paper's figures
  const std::string out = render_ascii_timeline(r, opt);
  EXPECT_NE(out.find("Stream 34"), std::string::npos);
}

TEST(AsciiTimelineTest, WindowRestrictsRendering) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::Kernel, 0, 100);
  add_span(r, 1, 0, SpanKind::Kernel, 500, 600);
  AsciiTimelineOptions opt;
  opt.begin = 400;
  opt.end = 700;
  const std::string out = render_ascii_timeline(r, opt);
  EXPECT_EQ(out.find("Stream 0"), std::string::npos);
  EXPECT_NE(out.find("Stream 1"), std::string::npos);
}

TEST(ChromeTraceTest, ProducesWellFormedJson) {
  Recorder r;
  add_span(r, 3, 9, SpanKind::Kernel, 1000, 3000, "Fan1");
  const std::string json = chrome_trace_json(r);
  EXPECT_NE(json.find("\"name\": \"Fan1\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"app\": 9"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(ChromeTraceTest, EscapesSpecialCharacters) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::Kernel, 0, 1, "a\"b\\c");
  const std::string json = chrome_trace_json(r);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

TEST(ChromeTraceTest, SpanPastOneSecondKeepsFullPrecision) {
  // Span times are written in shortest round-trip form, like counter and
  // flow events: 6 significant digits would print this span's start as
  // 1.23457e+06 us, 0.891 us early.
  Recorder r;
  add_span(r, 0, 0, SpanKind::Kernel, 1'234'567'891, 1'237'067'892, "late");
  const std::string json = chrome_trace_json(r);
  EXPECT_NE(json.find("\"ts\": 1234567.891,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\": 2500.001,"), std::string::npos) << json;
}

TEST(ChromeTraceTest, EmptyRecorderIsEmptyArray) {
  Recorder r;
  EXPECT_EQ(chrome_trace_json(r), "[\n]\n");
}

// ------------------------------------------------------- counter events

TEST(ChromeTraceCounterTest, EmitsCounterEventsAfterSpans) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::Kernel, 1000, 3000, "k");
  std::vector<CounterTrack> counters(1);
  counters[0].name = "copy_queue_depth_htod";
  counters[0].points = {{0, 0.0}, {2000, 3.0}, {5000, 1.0}};
  const std::string json = chrome_trace_json(r, counters);
  EXPECT_TRUE(hq::testing::json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"copy_queue_depth_htod\""),
            std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 3}"), std::string::npos);
  // Span events still precede the counter events.
  EXPECT_LT(json.find("\"ph\": \"X\""), json.find("\"ph\": \"C\""));
}

TEST(ChromeTraceCounterTest, CountersAloneAreWellFormed) {
  // No spans: the first emitted event is a counter, which must not be
  // preceded by a comma.
  Recorder r;
  std::vector<CounterTrack> counters(2);
  counters[0].name = "power_watts";
  counters[0].points = {{0, 25.0}, {100, 137.5}};
  counters[1].name = "occupancy";
  counters[1].points = {{0, 0.25}};
  const std::string json = chrome_trace_json(r, counters);
  EXPECT_TRUE(hq::testing::json_well_formed(json)) << json;
  EXPECT_NE(json.find("137.5"), std::string::npos);
}

TEST(ChromeTraceCounterTest, TimestampsStayMonotonicPerTrack) {
  Recorder r;
  std::vector<CounterTrack> counters(1);
  counters[0].name = "depth";
  counters[0].points = {{1000, 1.0}, {2000, 2.0}, {2000, 3.0}, {250000, 0.0}};
  const std::string json = chrome_trace_json(r, counters);
  EXPECT_TRUE(hq::testing::json_well_formed(json)) << json;
  // Extract the "ts" values in emission order and check they never decrease
  // (Perfetto sorts stably, but out-of-order counters render misleadingly).
  std::vector<double> ts;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\": ", pos)) != std::string::npos) {
    pos += 6;
    ts.push_back(std::stod(json.substr(pos)));
  }
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end())) << json;
}

TEST(ChromeTraceCounterTest, EscapesQuotesAndBackslashesInTrackNames) {
  Recorder r;
  std::vector<CounterTrack> counters(1);
  counters[0].name = "weird\"name\\track";
  counters[0].points = {{0, 1.0}};
  const std::string json = chrome_trace_json(r, counters);
  EXPECT_TRUE(hq::testing::json_well_formed(json)) << json;
  EXPECT_NE(json.find("weird\\\"name\\\\track"), std::string::npos);
}

// --------------------------------------------------------------- digest

TEST(DigestTest, IdenticalRecordersAgree) {
  Recorder a, b;
  for (Recorder* r : {&a, &b}) {
    add_span(*r, 0, 1, SpanKind::MemcpyHtoD, 0, 100, "in");
    add_span(*r, 1, 1, SpanKind::Kernel, 100, 300, "k");
  }
  EXPECT_EQ(digest(a), digest(b));
  EXPECT_NE(digest(a), digest(Recorder{}));
}

TEST(DigestTest, RecordingOrderMatters) {
  Recorder a, b;
  add_span(a, 0, 0, SpanKind::Kernel, 0, 10, "x");
  add_span(a, 1, 0, SpanKind::Kernel, 0, 10, "y");
  add_span(b, 1, 0, SpanKind::Kernel, 0, 10, "y");
  add_span(b, 0, 0, SpanKind::Kernel, 0, 10, "x");
  EXPECT_NE(digest(a), digest(b));
}

TEST(DigestTest, EveryFieldIsSignificant) {
  // Span fields fed to one recorder per case; each mutation of the base
  // scenario must move the digest.
  struct Fields {
    std::int32_t lane = 2;
    std::int32_t app = 3;
    SpanKind kind = SpanKind::MemcpyDtoH;
    std::string_view name = "out";
    TimeNs begin = 50;
    TimeNs end = 90;
  };
  const auto digest_with = [](auto mutate) {
    Fields f;
    mutate(f);
    Recorder r;
    r.add(f.lane, f.app, f.kind, f.name, f.begin, f.end);
    return digest(r);
  };
  const std::uint64_t ref_digest = digest_with([](Fields&) {});
  EXPECT_NE(digest_with([](Fields& f) { f.lane = 9; }), ref_digest);
  EXPECT_NE(digest_with([](Fields& f) { f.app = 9; }), ref_digest);
  EXPECT_NE(digest_with([](Fields& f) { f.kind = SpanKind::Kernel; }),
            ref_digest);
  EXPECT_NE(digest_with([](Fields& f) { f.name = "oops"; }), ref_digest);
  EXPECT_NE(digest_with([](Fields& f) { f.begin = 51; }), ref_digest);
  EXPECT_NE(digest_with([](Fields& f) { f.end = 91; }), ref_digest);
}

TEST(DigestTest, DigestIsIndependentOfInterningOrder) {
  // Two recorders with identical span sequences but different name-table
  // layouts (b interns extra names first, so "x"/"y" get different ids)
  // must digest identically: the digest covers resolved name bytes.
  Recorder a, b;
  b.intern("unused-1");
  b.intern("unused-2");
  for (Recorder* r : {&a, &b}) {
    add_span(*r, 0, 1, SpanKind::Kernel, 0, 10, "x");
    add_span(*r, 1, 1, SpanKind::Kernel, 10, 20, "y");
  }
  EXPECT_NE(a.span(0).name, b.span(0).name);  // ids differ...
  EXPECT_EQ(digest(a), digest(b));                  // ...digests agree
}

// ------------------------------------------------------------- interning

TEST(InterningTest, RoundTripAndDeduplication) {
  Recorder r;
  const NameId a = r.intern("Fan1");
  const NameId b = r.intern("Fan2");
  const NameId a2 = r.intern("Fan1");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(r.name_of(a), "Fan1");
  EXPECT_EQ(r.name_of(b), "Fan2");
  EXPECT_EQ(r.name_count(), 2u);
}

TEST(InterningTest, IdsAreDenseInFirstInterningOrder) {
  Recorder r;
  EXPECT_EQ(r.intern("a"), 0u);
  EXPECT_EQ(r.intern("b"), 1u);
  EXPECT_EQ(r.intern("a"), 0u);
  EXPECT_EQ(r.intern("c"), 2u);
  EXPECT_EQ(r.name_count(), 3u);
}

TEST(InterningTest, ViewsStayValidAsTableGrows) {
  // name_of views must remain stable while the table grows (the digest and
  // exporters hold them across interleaved interning).
  Recorder r;
  const NameId first = r.intern("first-name");
  const std::string_view view = r.name_of(first);
  for (int i = 0; i < 1000; ++i) {
    r.intern("grow-" + std::to_string(i));
  }
  EXPECT_EQ(view, "first-name");
  EXPECT_EQ(r.name_of(first), "first-name");
}

TEST(InterningTest, RecorderIsMoveOnly) {
  // ids_ keys are string_views into names_, so a memberwise copy would leave
  // the copy aliasing the source's strings; copying must not compile. Moves
  // transfer the deque's blocks without relocating elements, so they are
  // allowed and must keep previously issued ids and views valid.
  static_assert(!std::is_copy_constructible_v<Recorder>);
  static_assert(!std::is_copy_assignable_v<Recorder>);
  static_assert(std::is_move_constructible_v<Recorder>);
  static_assert(std::is_move_assignable_v<Recorder>);

  Recorder r;
  const NameId k = r.intern("moved-kernel");
  add_span(r, 0, 0, SpanKind::Kernel, 0, 1, "moved-kernel");
  const std::uint64_t before = digest(r);

  Recorder moved = std::move(r);
  EXPECT_EQ(moved.name_of(k), "moved-kernel");
  EXPECT_EQ(moved.intern("moved-kernel"), k);
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_EQ(digest(moved), before);
}

TEST(InterningTest, AddRejectsForeignNameIds) {
  // A span naming an id the recorder never issued is a hard error — spans
  // are meaningless without their own recorder's table.
  Recorder r;
  EXPECT_THROW(r.add(Span{0, 0, SpanKind::Kernel, 7, 0, 1}), hq::Error);
  EXPECT_THROW((void)r.name_of(0), hq::Error);
}

TEST(InterningTest, SpansShareOneTableEntry) {
  Recorder r;
  for (int i = 0; i < 100; ++i) {
    add_span(r, i, 0, SpanKind::Kernel, i, i + 1, "same-kernel");
  }
  EXPECT_EQ(r.size(), 100u);
  EXPECT_EQ(r.name_count(), 1u);
  for (const Span& s : r) EXPECT_EQ(r.name_of(s.name), "same-kernel");
}

TEST(InterningTest, ClearResetsSpansAndNames) {
  Recorder r;
  add_span(r, 0, 0, SpanKind::Kernel, 0, 1, "k");
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.name_count(), 0u);
  EXPECT_EQ(r.intern("fresh"), 0u);
}

TEST(DigestTest, StableAcrossProcessRuns) {
  // Pinned constant: the digest is part of the determinism contract, so a
  // change to the hash or the span encoding must be deliberate and visible.
  Recorder r;
  add_span(r, 0, 0, SpanKind::MemcpyHtoD, 0, 64, "in");
  add_span(r, 0, 0, SpanKind::Kernel, 64, 128, "k");
  add_span(r, 0, 0, SpanKind::MemcpyDtoH, 128, 160, "out");
  EXPECT_EQ(digest(r), 0x7dae9fc389d8afbdULL);
}

}  // namespace
}  // namespace hq::trace
