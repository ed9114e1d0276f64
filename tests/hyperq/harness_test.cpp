#include "hyperq/harness.hpp"

#include <gtest/gtest.h>

#include <set>

#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fw {
namespace {

using testing::SyntheticApp;
using testing::synthetic_workload;

HarnessConfig quiet_config() {
  HarnessConfig config;
  config.functional = true;
  config.sensor.noise_stddev = 0.0;
  config.sensor.quantization = 0.0;
  return config;
}

TEST(HarnessTest, SingleAppRunsToCompletion) {
  HarnessConfig config = quiet_config();
  config.num_streams = 1;
  Harness harness(config);
  const auto result = harness.run(synthetic_workload(1, {}));

  EXPECT_GT(result.makespan, 0u);
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_TRUE(result.all_verified);
  EXPECT_EQ(result.device_stats.kernels_completed, 4u);
  EXPECT_EQ(result.device_stats.copies_htod, 2u);
  EXPECT_EQ(result.device_stats.copies_dtoh, 1u);
  EXPECT_GT(result.energy_exact, 0.0);
}

TEST(HarnessTest, HostMemoryIsInitialisedOnlyInFunctionalRuns) {
  for (const bool functional : {false, true}) {
    int inits = 0;
    HarnessConfig config;
    config.functional = functional;
    Harness(config).run(std::vector<WorkloadItem>(
        3, testing::init_counting_item(&inits)));
    EXPECT_EQ(inits, functional ? 3 : 0) << "functional=" << functional;
  }
}

TEST(HarnessTest, AppMetricsPopulated) {
  Harness harness(quiet_config());
  const auto result = harness.run(synthetic_workload(3, {}));
  ASSERT_EQ(result.apps.size(), 3u);
  for (const auto& app : result.apps) {
    EXPECT_GT(app.htod_effective_latency, 0u) << app.app_id;
    EXPECT_GT(app.dtoh_effective_latency, 0u) << app.app_id;
    EXPECT_GT(app.htod_own_time, 0u);
    EXPECT_GE(app.htod_effective_latency, app.htod_own_time);
    EXPECT_EQ(app.htod_bytes, 256 * kKiB);
    EXPECT_GT(app.end_time, app.launch_time);
  }
}

TEST(HarnessTest, LaunchStaggerSpacesChildLaunches) {
  HarnessConfig config = quiet_config();
  config.launch_stagger = 25 * kMicrosecond;
  Harness harness(config);
  const auto result = harness.run(synthetic_workload(4, {}));
  for (std::size_t i = 1; i < result.apps.size(); ++i) {
    EXPECT_EQ(result.apps[i].launch_time - result.apps[i - 1].launch_time,
              25 * kMicrosecond);
  }
}

TEST(HarnessTest, ConcurrentBeatsSerialForUnderutilizingApps) {
  // Tiny kernels (16 blocks of a 208-slot machine): 8 apps on 8 streams
  // should far outrun 8 apps on one stream.
  SyntheticApp::Spec spec;
  spec.num_kernels = 8;
  spec.block_duration = 50 * kMicrosecond;

  HarnessConfig serial_cfg = quiet_config();
  serial_cfg.num_streams = 1;
  const auto serial = Harness(serial_cfg).run(synthetic_workload(8, spec));

  HarnessConfig conc_cfg = quiet_config();
  conc_cfg.num_streams = 8;
  const auto concurrent = Harness(conc_cfg).run(synthetic_workload(8, spec));

  EXPECT_LT(concurrent.makespan, serial.makespan);
  EXPECT_GT(improvement(static_cast<double>(serial.makespan),
                        static_cast<double>(concurrent.makespan)),
            0.4);
}

TEST(HarnessTest, ConcurrencyReducesEnergy) {
  SyntheticApp::Spec spec;
  spec.num_kernels = 8;
  spec.block_duration = 50 * kMicrosecond;

  HarnessConfig serial_cfg = quiet_config();
  serial_cfg.num_streams = 1;
  HarnessConfig conc_cfg = quiet_config();
  conc_cfg.num_streams = 8;
  const auto serial = Harness(serial_cfg).run(synthetic_workload(8, spec));
  const auto concurrent = Harness(conc_cfg).run(synthetic_workload(8, spec));

  // Paper observation #4: power is concave in concurrency, so shorter
  // makespan wins on energy even at higher instantaneous power.
  EXPECT_LT(concurrent.energy_exact, serial.energy_exact);
  EXPECT_GE(concurrent.average_power, serial.average_power * 0.9);
}

TEST(HarnessTest, RunsAreDeterministic) {
  HarnessConfig config = quiet_config();
  config.num_streams = 4;
  const auto a = Harness(config).run(synthetic_workload(6, {}));
  const auto b = Harness(config).run(synthetic_workload(6, {}));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.energy_exact, b.energy_exact);
  EXPECT_EQ(a.trace->size(), b.trace->size());
}

TEST(HarnessTest, StreamsBoundedByPool) {
  HarnessConfig config = quiet_config();
  config.num_streams = 2;
  Harness harness(config);
  const auto result = harness.run(synthetic_workload(6, {}));
  std::set<std::int32_t> lanes;
  for (const auto& span : *result.trace) lanes.insert(span.lane);
  EXPECT_LE(lanes.size(), 2u);
}

TEST(HarnessTest, MemorySyncReducesEffectiveLatency) {
  SyntheticApp::Spec spec;
  spec.htod_pieces = 4;
  spec.htod_bytes = 512 * kKiB;

  HarnessConfig base_cfg = quiet_config();
  base_cfg.num_streams = 8;
  base_cfg.launch_stagger = kMicrosecond;  // maximize interleaving
  const auto base = Harness(base_cfg).run(synthetic_workload(8, spec));

  HarnessConfig sync_cfg = base_cfg;
  sync_cfg.memory_sync = true;
  const auto sync = Harness(sync_cfg).run(synthetic_workload(8, spec));

  EXPECT_LT(mean_htod_effective_latency(sync.apps),
            mean_htod_effective_latency(base.apps));
  // With the mutex, every app's Le collapses to its own service time.
  for (const auto& app : sync.apps) {
    EXPECT_LE(app.htod_effective_latency, app.htod_own_time * 11 / 10);
  }
  // Lock waits appear in the trace.
  EXPECT_FALSE(sync.trace->by_kind(trace::SpanKind::LockWait).empty());
  EXPECT_TRUE(base.trace->by_kind(trace::SpanKind::LockWait).empty());
}

TEST(HarnessTest, ChunkingSplitsTransfers) {
  SyntheticApp::Spec spec;
  spec.htod_pieces = 1;
  spec.htod_bytes = 64 * kKiB;

  HarnessConfig config = quiet_config();
  config.num_streams = 1;
  config.transfer_chunk_bytes = 8 * kKiB;
  // SyntheticApp issues its own transfers, so chunking applies only to apps
  // honouring ctx.transfer_chunk_bytes (the Rodinia base class does); here
  // we only assert the config plumbs through.
  Harness harness(config);
  const auto result = harness.run(synthetic_workload(1, spec));
  EXPECT_EQ(result.device_stats.copies_htod, 1u);
}

TEST(HarnessTest, PowerTraceCoversRun) {
  HarnessConfig config = quiet_config();
  config.power_period = 50 * kMicrosecond;
  SyntheticApp::Spec spec;
  spec.num_kernels = 20;
  spec.block_duration = 100 * kMicrosecond;
  Harness harness(config);
  const auto result = harness.run(synthetic_workload(4, spec));
  EXPECT_GT(result.power_trace.size(), 5u);
  EXPECT_GT(result.peak_power, result.average_power * 0.99);
  // Sensor-integrated energy lands in the neighbourhood of ground truth.
  EXPECT_NEAR(result.energy_sensor, result.energy_exact,
              result.energy_exact * 0.35);
}

TEST(HarnessTest, MonitoringCanBeDisabled) {
  HarnessConfig config = quiet_config();
  config.monitor_power = false;
  Harness harness(config);
  const auto result = harness.run(synthetic_workload(2, {}));
  EXPECT_TRUE(result.power_trace.empty());
  EXPECT_GT(result.energy_exact, 0.0);  // exact energy still available
}

TEST(HarnessTest, EmptyWorkloadThrows) {
  Harness harness(quiet_config());
  EXPECT_THROW(harness.run({}), hq::Error);
}

TEST(HarnessTest, FermiModeRunsAndIsSlowerThanHyperQ) {
  SyntheticApp::Spec spec;
  spec.num_kernels = 6;
  spec.block_duration = 80 * kMicrosecond;

  HarnessConfig hyperq_cfg = quiet_config();
  hyperq_cfg.num_streams = 8;
  const auto hyperq = Harness(hyperq_cfg).run(synthetic_workload(8, spec));

  HarnessConfig fermi_cfg = hyperq_cfg;
  fermi_cfg.device = gpu::DeviceSpec::fermi_single_queue();
  const auto fermi = Harness(fermi_cfg).run(synthetic_workload(8, spec));

  EXPECT_GT(fermi.makespan, hyperq.makespan);
}

}  // namespace
}  // namespace hq::fw
