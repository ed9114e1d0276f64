// Property-based sweep of the harness across stream counts, memory-sync
// settings, and scheduling orders, using the synthetic test application.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fw {
namespace {

using testing::SyntheticApp;
using testing::synthetic_workload;

class HarnessProperty
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(HarnessProperty, AllAppsCompleteAndInvariantsHold) {
  const auto [num_streams, memory_sync] = GetParam();
  HarnessConfig config;
  config.num_streams = num_streams;
  config.memory_sync = memory_sync;
  config.functional = true;
  config.sensor.noise_stddev = 0.0;
  config.sensor.quantization = 0.0;

  SyntheticApp::Spec spec;
  spec.num_kernels = 3;
  spec.htod_pieces = 2;
  const int na = 8;
  Harness harness(config);
  const auto result = harness.run(synthetic_workload(na, spec));

  // Everything ran and verified.
  EXPECT_TRUE(result.all_verified);
  EXPECT_EQ(result.device_stats.kernels_completed,
            static_cast<std::uint64_t>(na * spec.num_kernels));
  EXPECT_EQ(result.device_stats.copies_htod,
            static_cast<std::uint64_t>(na * spec.htod_pieces));
  EXPECT_EQ(result.device_stats.copies_dtoh, static_cast<std::uint64_t>(na));

  // Phase boundaries are sane.
  EXPECT_GT(result.makespan, 0u);
  EXPECT_EQ(result.phase_end - result.phase_begin, result.makespan);
  for (const auto& app : result.apps) {
    EXPECT_GE(app.launch_time, result.phase_begin);
    EXPECT_LE(app.end_time, result.phase_end);
    EXPECT_GE(app.htod_effective_latency, app.htod_own_time);
  }

  // Streams stay within the pool.
  std::set<std::int32_t> lanes;
  for (const auto& span : *result.trace) lanes.insert(span.lane);
  EXPECT_LE(static_cast<int>(lanes.size()), num_streams);

  // Energy accounting is positive and consistent.
  EXPECT_GT(result.energy_exact, 0.0);
  EXPECT_GE(result.peak_power, result.average_power);
  EXPECT_GE(result.average_occupancy, 0.0);
  EXPECT_LE(result.average_occupancy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(StreamsAndSync, HarnessProperty,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 32),
                                            ::testing::Bool()),
                         [](const auto& param_info) {
                           return "ns" +
                                  std::to_string(std::get<0>(param_info.param)) +
                                  (std::get<1>(param_info.param) ? "_sync"
                                                                 : "_default");
                         });

class MakespanMonotoneProperty : public ::testing::TestWithParam<int> {};

TEST_P(MakespanMonotoneProperty, MoreStreamsNeverSlower) {
  // Adding streams to the same workload must never increase makespan by
  // more than scheduling noise.
  const int ns = GetParam();
  SyntheticApp::Spec spec;
  spec.num_kernels = 6;
  spec.block_duration = 40 * kMicrosecond;

  HarnessConfig narrow_cfg;
  narrow_cfg.num_streams = ns;
  narrow_cfg.sensor.noise_stddev = 0.0;
  HarnessConfig wide_cfg = narrow_cfg;
  wide_cfg.num_streams = ns * 2;

  const auto narrow = Harness(narrow_cfg).run(synthetic_workload(8, spec));
  const auto wide = Harness(wide_cfg).run(synthetic_workload(8, spec));
  EXPECT_LE(wide.makespan, narrow.makespan * 102 / 100) << "ns=" << ns;
}

INSTANTIATE_TEST_SUITE_P(StreamDoubling, MakespanMonotoneProperty,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace hq::fw
