// MetricsRegistry primitives: counter/gauge/histogram/series semantics and
// the registry's create-on-first-use + registration-order contract.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace hq::obs {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, GaugeTracksPeakIncludingNegatives) {
  Gauge g;
  g.set(-5.0);
  EXPECT_EQ(g.value(), -5.0);
  EXPECT_EQ(g.peak(), -5.0);  // peak of what was written, not of 0
  g.set(3.0);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 2.0);
  EXPECT_EQ(g.peak(), 3.0);
}

TEST(MetricsTest, HistogramBucketsWithOverflow) {
  Histogram h({10.0, 100.0});
  h.record(5.0);
  h.record(10.0);   // on-bound lands in the <= 10 bucket
  h.record(50.0);
  h.record(1000.0);  // overflow
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1065.0);
}

TEST(MetricsTest, HistogramStartsEmpty) {
  Histogram h({10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(MetricsTest, HistogramMergeAddsBucketwise) {
  Histogram a({10.0, 100.0});
  a.record(5.0);
  a.record(100.0);  // exactly on the upper bound: <= 100 bucket
  Histogram b({10.0, 100.0});
  b.record(10.0);
  b.record(1e18);  // overflow (+inf) bucket
  a.merge(b);
  EXPECT_EQ(a.counts(), (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 115.0 + 1e18);
  // Merging an empty histogram is the identity.
  a.merge(Histogram({10.0, 100.0}));
  EXPECT_EQ(a.count(), 4u);
}

TEST(MetricsTest, HistogramMergeRejectsMismatchedBounds) {
  Histogram a({10.0, 100.0});
  EXPECT_ANY_THROW(a.merge(Histogram({10.0})));
  EXPECT_ANY_THROW(a.merge(Histogram({10.0, 200.0})));
}

TEST(MetricsTest, HistogramRejectsBadBounds) {
  EXPECT_ANY_THROW(Histogram({}));
  EXPECT_ANY_THROW(Histogram({1.0, 1.0}));
  EXPECT_ANY_THROW(Histogram({2.0, 1.0}));
}

TEST(MetricsTest, SeriesDropsUnchangedAndCoalescesInstants) {
  Series s;
  s.sample(0, 1.0);
  s.sample(10, 1.0);  // unchanged: dropped
  s.sample(20, 2.0);
  s.sample(20, 3.0);  // same instant: keep final value
  s.sample(30, 0.0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.point(0).time, 0u);
  EXPECT_EQ(s.point(1).time, 20u);
  EXPECT_EQ(s.point(1).value, 3.0);
  EXPECT_EQ(s.point(2).value, 0.0);
  EXPECT_EQ(s.last(), 0.0);
  EXPECT_EQ(s.peak(), 3.0);
}

TEST(MetricsTest, SeriesRejectsTimeGoingBackwards) {
  Series s;
  s.sample(100, 1.0);
  EXPECT_ANY_THROW(s.sample(50, 2.0));
}

TEST(MetricsTest, RegistryReturnsSameInstrumentAndKeepsOrder) {
  MetricsRegistry reg;
  reg.counter("a").add(1);
  reg.series("b").sample(0, 1.0);
  reg.counter("a").add(1);  // same instrument
  EXPECT_EQ(reg.size(), 2u);
  ASSERT_NE(reg.find("a"), nullptr);
  EXPECT_EQ(std::get<Counter>(reg.find("a")->metric).value(), 2u);
  EXPECT_EQ(reg.find("missing"), nullptr);

  std::vector<std::string> order;
  reg.for_each([&](const MetricsRegistry::Entry& e) { order.push_back(e.name); });
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

TEST(MetricsTest, RegistryRejectsKindMismatch) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_ANY_THROW(reg.gauge("x"));
  EXPECT_ANY_THROW(reg.series("x"));
}

TEST(MetricsTest, RegistryReferencesStableAcrossGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name);
  }
  first.add(7);
  EXPECT_EQ(std::get<Counter>(reg.find("first")->metric).value(), 7u);
}

}  // namespace
}  // namespace hq::obs
