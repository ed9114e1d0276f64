// Deterministic stress: large mixed workloads through every code path at
// once (all seven applications, both transfer modes, chunking, priorities,
// streaming) — verifying conservation invariants rather than exact values.
#include <gtest/gtest.h>

#include <map>

#include "hyperq/harness.hpp"
#include "hyperq/schedule.hpp"
#include "rodinia/registry.hpp"
#include "serve/service.hpp"

namespace hq::fw {
namespace {

TEST(StressTest, SixtyFourMixedAppsCompleteConsistently) {
  HarnessConfig config;
  config.num_streams = 32;
  config.monitor_power = true;
  config.power_period = 5 * kMillisecond;
  config.sensor.noise_stddev = 0.0;

  rodinia::AppParams square = {64, 2, 1};
  rodinia::AppParams nn_params = {4000, std::nullopt, 2};
  rodinia::AppParams path_params = {2000, 30, 3};

  std::vector<WorkloadItem> workload;
  std::map<std::string, int> expected_kernels;
  const auto& names = rodinia::app_names();
  for (int i = 0; i < 64; ++i) {
    const std::string& name = names[i % names.size()];
    rodinia::AppParams params = square;
    if (name == "nn") params = nn_params;
    if (name == "pathfinder") params = path_params;
    workload.push_back(rodinia::make_app(name, params));
  }

  Harness harness(config);
  const auto result = harness.run(workload);

  EXPECT_EQ(result.apps.size(), 64u);
  for (const auto& app : result.apps) {
    EXPECT_GT(app.end_time, 0u) << app.app_id << " " << app.type;
    EXPECT_LE(app.end_time, result.phase_end);
  }
  // Byte conservation: device counters equal the sum of app declarations.
  Bytes expected_htod = 0, expected_dtoh = 0;
  for (const auto& app : result.apps) {
    expected_htod += app.htod_bytes;
    expected_dtoh += app.dtoh_bytes;
  }
  EXPECT_EQ(result.device_stats.bytes_htod, expected_htod);
  EXPECT_EQ(result.device_stats.bytes_dtoh, expected_dtoh);
  EXPECT_GT(result.device_stats.kernels_completed, 64u);
  EXPECT_GT(result.energy_exact, 0.0);

  // Determinism at scale.
  Harness harness2(config);
  const auto again = harness2.run(workload);
  EXPECT_EQ(again.makespan, result.makespan);
  EXPECT_EQ(again.trace->size(), result.trace->size());
}

TEST(StressTest, ChunkedFunctionalWorkloadStaysCorrect) {
  // Chunking changes transfer granularity; functional verification proves
  // the data still arrives intact under heavy interleaving.
  HarnessConfig config;
  config.num_streams = 8;
  config.functional = true;
  config.transfer_chunk_bytes = 4 * kKiB;
  config.monitor_power = false;
  config.launch_stagger = kMicrosecond;

  rodinia::AppParams square = {32, 2, 7};
  std::vector<WorkloadItem> workload;
  for (int i = 0; i < 8; ++i) {
    workload.push_back(
        rodinia::make_app(i % 2 == 0 ? "needle" : "srad", square));
  }
  Harness harness(config);
  const auto result = harness.run(workload);
  EXPECT_TRUE(result.all_verified);
  // 4 KiB chunks of ~4.3 KiB (needle 33x33 ints) and 4 KiB planes (srad
  // 32x32 floats): more HtoD transactions than buffers.
  EXPECT_GT(result.device_stats.copies_htod, 12u);
}

TEST(StressTest, StreamingUnderSustainedOverload) {
  serve::ServiceConfig config;
  config.window = 30 * kMillisecond;
  config.mean_interarrival = 100 * kMicrosecond;  // heavy overload
  config.num_streams = 4;
  config.collect_metrics = false;
  rodinia::AppParams square = {64, 2, 5};
  for (const char* app : {"needle", "srad", "hotspot"}) {
    config.classes.push_back({rodinia::make_app(app, square), 0});
  }
  const serve::ServeReport result = serve::Service(config).run().report;
  EXPECT_GT(result.arrived, 100u);
  EXPECT_EQ(result.completed, result.arrived);
  EXPECT_GT(result.average_occupancy, 0.0);
  // Under overload, p95 turnaround far exceeds the mean service time.
  EXPECT_GT(result.p95_turnaround, result.mean_turnaround);
}

TEST(StressTest, FermiModeHandlesLargeMixedWorkloads) {
  HarnessConfig config;
  config.device = gpu::DeviceSpec::fermi_single_queue();
  config.num_streams = 16;
  config.monitor_power = false;
  rodinia::AppParams square = {64, 2, 11};
  std::vector<WorkloadItem> workload;
  for (int i = 0; i < 32; ++i) {
    workload.push_back(
        rodinia::make_app(i % 2 == 0 ? "gaussian" : "needle", square));
  }
  Harness harness(config);
  const auto result = harness.run(workload);
  EXPECT_EQ(result.apps.size(), 32u);
  EXPECT_GT(result.makespan, 0u);
}

}  // namespace
}  // namespace hq::fw
