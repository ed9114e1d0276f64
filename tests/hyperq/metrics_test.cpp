// Edge cases of the paper's Eq. 1-2 effective-memory-transfer-latency
// extraction, and agreement between the per-app recorder scans and the
// one-pass extraction the harness uses.
#include "hyperq/metrics.hpp"

#include <gtest/gtest.h>

#include "hyperq/harness.hpp"
#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fw {
namespace {

void htod(trace::Recorder& r, int app, TimeNs begin, TimeNs end) {
  r.add(app, app, trace::SpanKind::MemcpyHtoD, "h2d", begin, end);
}

void dtoh(trace::Recorder& r, int app, TimeNs begin, TimeNs end) {
  r.add(app, app, trace::SpanKind::MemcpyDtoH, "d2h", begin, end);
}

TEST(EffectiveLatencyTest, SingleTransferIsItsOwnServiceTime) {
  trace::Recorder r;
  htod(r, 0, 100, 160);
  const auto le =
      effective_transfer_latency(r, 0, trace::SpanKind::MemcpyHtoD);
  ASSERT_TRUE(le.has_value());
  EXPECT_EQ(*le, 60);
  EXPECT_EQ(own_transfer_time(r, 0, trace::SpanKind::MemcpyHtoD), 60);
}

TEST(EffectiveLatencyTest, OneDirectionOnlyLeavesOtherEmpty) {
  trace::Recorder r;
  htod(r, 0, 0, 50);
  htod(r, 0, 80, 120);
  EXPECT_FALSE(
      effective_transfer_latency(r, 0, trace::SpanKind::MemcpyDtoH)
          .has_value());
  EXPECT_EQ(own_transfer_time(r, 0, trace::SpanKind::MemcpyDtoH), 0);
  // The populated direction is unaffected.
  EXPECT_EQ(*effective_transfer_latency(r, 0, trace::SpanKind::MemcpyHtoD),
            120);
}

TEST(EffectiveLatencyTest, UnknownAppIsEmptyNotZero) {
  trace::Recorder r;
  htod(r, 0, 0, 50);
  EXPECT_FALSE(
      effective_transfer_latency(r, 7, trace::SpanKind::MemcpyHtoD)
          .has_value());
  EXPECT_EQ(own_transfer_time(r, 7, trace::SpanKind::MemcpyHtoD), 0);
}

TEST(EffectiveLatencyTest, OutOfOrderSpansGiveSameWindow) {
  // Chunked/interleaved transfers can be recorded out of begin order; the
  // window must still be [min begin, max end].
  trace::Recorder in_order;
  htod(in_order, 1, 100, 150);
  htod(in_order, 1, 200, 260);
  htod(in_order, 1, 400, 410);
  trace::Recorder shuffled;
  htod(shuffled, 1, 400, 410);
  htod(shuffled, 1, 100, 150);
  htod(shuffled, 1, 200, 260);

  for (const trace::Recorder* r : {&in_order, &shuffled}) {
    EXPECT_EQ(*effective_transfer_latency(*r, 1, trace::SpanKind::MemcpyHtoD),
              310);
    EXPECT_EQ(own_transfer_time(*r, 1, trace::SpanKind::MemcpyHtoD),
              50 + 60 + 10);
  }
}

TEST(EffectiveLatencyTest, OnePassAndScanPathsAgreeOnRealRuns) {
  // The harness reads every app's numbers from one pass over its trace; the
  // per-app recorder scans are the reference. Both memory-sync modes give
  // interleaved and serialised copy queues.
  for (const bool memory_sync : {false, true}) {
    HarnessConfig config;
    config.num_streams = 4;
    config.memory_sync = memory_sync;
    testing::SyntheticApp::Spec spec;
    spec.htod_pieces = 3;
    const HarnessResult result =
        Harness(config).run(testing::synthetic_workload(6, spec));
    const trace::Recorder& r = *result.trace;
    const std::vector<AppTransferTimes> times = app_transfer_times(r, 6);
    ASSERT_EQ(times.size(), 6u);
    for (int app = 0; app < 6; ++app) {
      const AppTransferTimes& t = times[static_cast<std::size_t>(app)];
      EXPECT_EQ(t.htod_latency,
                effective_transfer_latency(r, app, trace::SpanKind::MemcpyHtoD))
          << "app=" << app;
      EXPECT_EQ(t.dtoh_latency,
                effective_transfer_latency(r, app, trace::SpanKind::MemcpyDtoH))
          << "app=" << app;
      EXPECT_EQ(t.htod_own_time,
                own_transfer_time(r, app, trace::SpanKind::MemcpyHtoD));
      EXPECT_EQ(t.first_activity, r.by_app(app).front().begin);
      const AppMetrics& m = result.apps[static_cast<std::size_t>(app)];
      EXPECT_EQ(m.htod_effective_latency, t.htod_latency.value_or(0));
      EXPECT_EQ(m.first_activity, t.first_activity.value_or(0));
    }
  }
}

TEST(AppTransferTimesTest, GroupsNumbersByAppInOnePass) {
  trace::Recorder r;
  htod(r, 2, 0, 10);
  htod(r, 0, 5, 15);
  htod(r, 2, 20, 30);
  dtoh(r, 2, 40, 45);
  r.add(9, 1, trace::SpanKind::Kernel, "k", 3, 4);
  const std::vector<AppTransferTimes> times = app_transfer_times(r, 3);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0].htod_latency, DurationNs{10});
  EXPECT_EQ(times[0].first_activity, TimeNs{5});
  EXPECT_FALSE(times[1].htod_latency.has_value());
  EXPECT_EQ(times[1].htod_own_time, 0);
  EXPECT_EQ(times[1].first_activity, TimeNs{3});
  EXPECT_EQ(times[2].htod_latency, DurationNs{30});
  EXPECT_EQ(times[2].htod_own_time, 20);
  EXPECT_EQ(times[2].dtoh_latency, DurationNs{5});
  EXPECT_EQ(times[2].first_activity, TimeNs{0});
}

TEST(AppTransferTimesTest, UnattributedAndUnknownIdsAreSkipped) {
  // Unattributed device work (app id -1) belongs to no app, and an app the
  // trace never saw gets empty numbers, not a neighbour's.
  trace::Recorder r;
  htod(r, -1, 0, 5);
  htod(r, 3, 5, 10);
  const std::vector<AppTransferTimes> times = app_transfer_times(r, 5);
  ASSERT_EQ(times.size(), 5u);
  for (const int app : {0, 1, 2, 4}) {
    const AppTransferTimes& t = times[static_cast<std::size_t>(app)];
    EXPECT_FALSE(t.htod_latency.has_value()) << app;
    EXPECT_FALSE(t.first_activity.has_value()) << app;
  }
  EXPECT_EQ(times[3].htod_latency, DurationNs{5});
}

TEST(AppTransferTimesTest, EmptyRecorderYieldsEmptyApps) {
  const trace::Recorder r;
  EXPECT_TRUE(app_transfer_times(r, 0).empty());
  const std::vector<AppTransferTimes> times = app_transfer_times(r, 2);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_FALSE(times[1].dtoh_latency.has_value());
  EXPECT_EQ(times[1].htod_own_time, 0);
}

TEST(AppTransferTimesTest, IdsOutsideTheWorkloadAreSkipped) {
  // Ids at or past num_apps, sparse 32-bit ones included, index nothing.
  trace::Recorder r;
  htod(r, 5'000'000, 0, 1);
  htod(r, 2, 1, 2);
  htod(r, 0, 3, 4);
  const std::vector<AppTransferTimes> times = app_transfer_times(r, 2);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0].htod_latency, DurationNs{1});
  EXPECT_FALSE(times[1].htod_latency.has_value());
}

}  // namespace
}  // namespace hq::fw
