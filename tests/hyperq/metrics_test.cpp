// Edge cases of the paper's Eq. 1-2 effective-memory-transfer-latency
// extraction, and agreement between the recorder-scan and AppIndex paths.
#include "hyperq/metrics.hpp"

#include <gtest/gtest.h>

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

TEST(EffectiveLatencyTest, IndexAndScanPathsAgree) {
  trace::Recorder r;
  for (int app = 0; app < 5; ++app) {
    for (int i = 0; i < 4; ++i) {
      const TimeNs t = app * 1000 + i * 37;
      htod(r, app, t, t + 20);
      if (app % 2 == 0) dtoh(r, app, t + 500, t + 540);
    }
  }
  const trace::AppIndex index(r);
  for (int app = 0; app < 6; ++app) {  // 5 is unknown on purpose
    for (const auto dir :
         {trace::SpanKind::MemcpyHtoD, trace::SpanKind::MemcpyDtoH}) {
      EXPECT_EQ(effective_transfer_latency(r, app, dir),
                effective_transfer_latency(index, app, dir))
          << "app=" << app;
      EXPECT_EQ(own_transfer_time(r, app, dir),
                own_transfer_time(index, app, dir))
          << "app=" << app;
    }
  }
}

TEST(AppIndexTest, GroupsSpansByAppInRecordingOrder) {
  trace::Recorder r;
  htod(r, 2, 0, 10);
  htod(r, 0, 5, 15);
  htod(r, 2, 20, 30);
  r.add(9, -1, trace::SpanKind::Kernel, "k", 0, 1);
  const trace::AppIndex index(r);
  EXPECT_EQ(index.app_count(), 3u);
  EXPECT_EQ(index.app_ids(), (std::vector<std::int32_t>{-1, 0, 2}));
  ASSERT_EQ(index.spans_for(2).size(), 2u);
  EXPECT_EQ(index.spans_for(2)[0].begin, 0);
  EXPECT_EQ(index.spans_for(2)[1].begin, 20);
  EXPECT_TRUE(index.spans_for(4).empty());
}

}  // namespace
}  // namespace hq::fw
