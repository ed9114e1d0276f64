// TelemetryObserver: derived state from synthetic event streams, a real
// device run, harness integration, and the zero-perturbation contract.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/hash.hpp"
#include "fault/fault.hpp"
#include "gpusim/device.hpp"
#include "hyperq/harness.hpp"
#include "obs/report.hpp"
#include "rodinia/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace hq::obs {
namespace {

using gpu::CopyDirection;

TelemetryObserver make_observer() {
  return TelemetryObserver(gpu::DeviceSpec::tesla_k20());
}

const Series& series_of(const TelemetryObserver& t, std::string_view name) {
  const auto* e = t.registry().find(name);
  EXPECT_NE(e, nullptr) << name;
  return std::get<Series>(e->metric);
}

// ----------------------------------------------------- synthetic streams

TEST(TelemetryTest, QueueDepthCountsInServiceTransactions) {
  TelemetryObserver t = make_observer();
  t.on_copy_enqueued(0, CopyDirection::HtoD, 1, 0, 0, 100);
  t.on_copy_enqueued(10, CopyDirection::HtoD, 2, 0, 1, 100);
  t.on_copy_served(50, CopyDirection::HtoD, 1, 0, 0, 50, 100);
  t.on_copy_served(90, CopyDirection::HtoD, 2, 1, 50, 90, 100);

  const Series& depth = series_of(t, "copy_queue_depth_htod");
  ASSERT_EQ(depth.size(), 4u);
  EXPECT_EQ(depth.point(0).value, 1.0);
  EXPECT_EQ(depth.point(1).value, 2.0);  // second enqueue while first served
  EXPECT_EQ(depth.point(2).value, 1.0);
  EXPECT_EQ(depth.point(3).value, 0.0);
  EXPECT_EQ(series_of(t, "copy_queue_depth_htod").peak(), 2.0);
  // The DtoH queue never saw traffic.
  EXPECT_TRUE(series_of(t, "copy_queue_depth_dtoh").empty());
}

TEST(TelemetryTest, QueueWaitHistogramMeasuresEnqueueToServiceBegin) {
  TelemetryObserver t = make_observer();
  t.on_copy_enqueued(0, CopyDirection::DtoH, 1, 0, 0, 100);
  // Waited 2000 ns before service began.
  t.on_copy_served(2500, CopyDirection::DtoH, 1, 0, 2000, 2500, 100);
  const auto* e = t.registry().find("copy_queue_wait_dtoh_ns");
  ASSERT_NE(e, nullptr);
  const auto& h = std::get<Histogram>(e->metric);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 2000.0);
}

TEST(TelemetryTest, AttributionCountsForeignTransfersInWindow) {
  TelemetryObserver t = make_observer();
  // App 0's window is [0, 100]; app 1 lands two transfers inside it and one
  // after it. Unattributed (-1) traffic inside the window is foreign too.
  t.on_copy_served(20, CopyDirection::HtoD, 1, 0, 0, 20, 1000);
  t.on_copy_served(40, CopyDirection::HtoD, 2, 1, 20, 40, 64);
  t.on_copy_served(60, CopyDirection::HtoD, 3, -1, 40, 60, 8);
  t.on_copy_served(100, CopyDirection::HtoD, 4, 0, 60, 100, 2000);
  t.on_copy_served(150, CopyDirection::HtoD, 5, 1, 100, 150, 256);
  t.finalize();

  const auto& attr = t.attribution();
  ASSERT_EQ(attr.size(), 2u);  // -1 gets no row of its own
  EXPECT_EQ(attr[0].app_id, 0);
  EXPECT_EQ(attr[0].htod_window_begin, 0);
  EXPECT_EQ(attr[0].htod_window_end, 100);
  EXPECT_EQ(attr[0].own_htod_count, 2u);
  EXPECT_EQ(attr[0].own_htod_bytes, 3000u);
  EXPECT_EQ(attr[0].foreign_htod_count, 2u);  // app 1's first + the -1
  EXPECT_EQ(attr[0].foreign_htod_bytes, 72u);

  EXPECT_EQ(attr[1].app_id, 1);
  EXPECT_EQ(attr[1].htod_window_begin, 20);
  EXPECT_EQ(attr[1].htod_window_end, 150);
  // App 0's second transfer and the -1 record land inside app 1's window;
  // app 0's first ends exactly at the window begin — touching, not
  // overlapping — and is excluded.
  EXPECT_EQ(attr[1].foreign_htod_count, 2u);
  EXPECT_EQ(attr[1].foreign_htod_bytes, 2008u);
}

TEST(TelemetryTest, SingleAppSeesNoForeignTransfers) {
  TelemetryObserver t = make_observer();
  t.on_copy_served(10, CopyDirection::HtoD, 1, 0, 0, 10, 100);
  t.on_copy_served(30, CopyDirection::HtoD, 2, 0, 10, 30, 100);
  t.finalize();
  ASSERT_EQ(t.attribution().size(), 1u);
  EXPECT_EQ(t.attribution()[0].foreign_htod_count, 0u);
  EXPECT_EQ(t.attribution()[0].own_htod_count, 2u);
}

TEST(TelemetryTest, FinalizeIsIdempotent) {
  TelemetryObserver t = make_observer();
  t.on_copy_served(10, CopyDirection::HtoD, 1, 0, 0, 10, 100);
  t.finalize();
  t.finalize();
  EXPECT_EQ(t.attribution().size(), 1u);
}

TEST(TelemetryTest, PowerSeriesRecordsSegmentsAndEnergyIntegral) {
  TelemetryObserver t = make_observer();
  // 100 W over [0, 1e9] then 50 W over [1e9, 3e9]: 200 J total.
  t.on_power_integrated(1'000'000'000, 100.0, 0.5);
  t.on_power_integrated(3'000'000'000, 50.0, 0.25);
  t.finalize();
  const Series& power = series_of(t, "power_watts");
  ASSERT_EQ(power.size(), 2u);
  EXPECT_EQ(power.point(0).time, 0u);
  EXPECT_EQ(power.point(0).value, 100.0);
  EXPECT_EQ(power.point(1).time, 1'000'000'000u);
  EXPECT_EQ(power.point(1).value, 50.0);
  const auto* e = t.registry().find("energy_joules");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(std::get<Gauge>(e->metric).value(), 200.0);
}

// --------------------------------------------------------- real device run

TEST(TelemetryTest, DeviceRunProducesConsistentDerivedState) {
  sim::Simulator sim;
  gpu::Device device(sim, gpu::DeviceSpec::tesla_k20());
  TelemetryObserver telemetry(device.spec());
  device.set_observer(&telemetry);

  device.register_stream(0);
  device.register_stream(1);
  device.submit_copy(0,
                     gpu::CopyRequest{CopyDirection::HtoD, kMiB, nullptr},
                     gpu::OpTag{0, "in0"});
  device.submit_copy(1,
                     gpu::CopyRequest{CopyDirection::HtoD, kMiB, nullptr},
                     gpu::OpTag{1, "in1"});
  device.submit_kernel(0,
                       gpu::KernelLaunch{"k0", gpu::Dim3{8, 1, 1},
                                         gpu::Dim3{128, 1, 1}, 16, 0,
                                         20 * kMicrosecond, 0.0, nullptr},
                       gpu::OpTag{0, "k0"});
  device.submit_copy(0,
                     gpu::CopyRequest{CopyDirection::DtoH, kKiB, nullptr},
                     gpu::OpTag{0, "out0"});
  sim.run();
  telemetry.finalize();

  const auto& reg = telemetry.registry();
  EXPECT_EQ(std::get<Counter>(reg.find("copies_htod")->metric).value(), 2u);
  EXPECT_EQ(std::get<Counter>(reg.find("copies_dtoh")->metric).value(), 1u);
  EXPECT_EQ(std::get<Counter>(reg.find("bytes_htod")->metric).value(),
            2 * kMiB);
  EXPECT_EQ(std::get<Counter>(reg.find("kernels_completed")->metric).value(),
            1u);
  EXPECT_EQ(std::get<Counter>(reg.find("blocks_placed")->metric).value(), 8u);

  // Every queue and the occupancy series drain back to zero.
  EXPECT_EQ(series_of(telemetry, "copy_queue_depth_htod").last(), 0.0);
  EXPECT_EQ(series_of(telemetry, "copy_queue_depth_dtoh").last(), 0.0);
  EXPECT_EQ(series_of(telemetry, "resident_blocks").last(), 0.0);
  EXPECT_EQ(series_of(telemetry, "thread_occupancy").last(), 0.0);
  EXPECT_GT(series_of(telemetry, "resident_blocks").peak(), 0.0);

  // The independent energy integral agrees with the device's own.
  const auto* e = reg.find("energy_joules");
  EXPECT_NEAR(std::get<Gauge>(e->metric).value(), device.energy(), 1e-9);

  // Both HtoD transfers attribute; each saw the other iff interleaved.
  ASSERT_EQ(telemetry.attribution().size(), 2u);
}

// ------------------------------------------------------ harness integration

TEST(TelemetryTest, HarnessFillsInterleaveMetricsAndTelemetryResult) {
  fw::HarnessConfig config;
  config.num_streams = 4;
  config.monitor_power = false;
  config.collect_telemetry = true;
  // No launch stagger: all four HtoD bursts hit the copy queue together, so
  // interleaving is guaranteed even with tiny inputs.
  config.launch_stagger = 0;
  rodinia::AppParams small;
  small.size = 64;
  fw::Harness harness(config);
  const auto result = harness.run(
      {rodinia::make_app("gaussian", small), rodinia::make_app("needle", small),
       rodinia::make_app("gaussian", small),
       rodinia::make_app("needle", small)});

  ASSERT_NE(result.telemetry, nullptr);
  EXPECT_GT(result.telemetry->events_observed(), 0u);
  EXPECT_EQ(result.telemetry->attribution().size(), result.apps.size());

  std::uint64_t total_interleaved = 0;
  for (const auto& m : result.apps) total_interleaved += m.htod_interleave_count;
  EXPECT_GT(total_interleaved, 0u);

  // Interleave count/bytes must be consistent with the attribution rows.
  for (const auto& a : result.telemetry->attribution()) {
    const auto& m = result.apps[static_cast<std::size_t>(a.app_id)];
    EXPECT_EQ(m.htod_interleave_count, a.foreign_htod_count);
    EXPECT_EQ(m.htod_interleave_bytes, a.foreign_htod_bytes);
  }
}

TEST(TelemetryTest, TelemetryOffLeavesResultEmpty) {
  fw::HarnessConfig config;
  config.num_streams = 2;
  config.monitor_power = false;
  rodinia::AppParams small;
  small.size = 64;
  const auto result = fw::Harness(config).run(
      {rodinia::make_app("needle", small), rodinia::make_app("needle", small)});
  EXPECT_EQ(result.telemetry, nullptr);
  for (const auto& m : result.apps) {
    EXPECT_EQ(m.htod_interleave_count, 0u);
    EXPECT_EQ(m.htod_interleave_bytes, 0u);
  }
}

/// Registration index of `name` in the registry's export order; -1 when
/// the name was never registered.
int export_position(const MetricsRegistry& reg, std::string_view name) {
  int index = 0;
  int found = -1;
  reg.for_each([&](const MetricsRegistry::Entry& e) {
    if (e.name == name) found = index;
    ++index;
  });
  return found;
}

TEST(TelemetryTest, SdcCountersRegisterLazilyAfterFaultEvents) {
  TelemetryObserver t = make_observer();
  t.on_fault_injected(10, gpu::ObservedFault::CopyStall, 1, 100);
  // No SDC fault yet: neither SDC counter exists in the export.
  EXPECT_EQ(t.registry().find("faults_sdc_copy"), nullptr);
  EXPECT_EQ(t.registry().find("faults_sdc_kernel"), nullptr);

  // Each SDC counter appears on its first fault, in first-fault order,
  // after every constructor-registered metric (fault_events is the last).
  const int fault_events = export_position(t.registry(), "fault_events");
  ASSERT_EQ(fault_events, static_cast<int>(t.registry().size()) - 1);
  t.on_fault_injected(20, gpu::ObservedFault::SdcKernelCorruption, 2, 0);
  t.on_fault_injected(30, gpu::ObservedFault::SdcCopyCorruption, 3, 0);
  t.on_fault_injected(40, gpu::ObservedFault::SdcKernelCorruption, 4, 0);
  EXPECT_EQ(export_position(t.registry(), "faults_sdc_kernel"),
            fault_events + 1);
  EXPECT_EQ(export_position(t.registry(), "faults_sdc_copy"),
            fault_events + 2);
  EXPECT_EQ(
      std::get<Counter>(t.registry().find("faults_sdc_kernel")->metric).value(),
      2u);
  EXPECT_EQ(
      std::get<Counter>(t.registry().find("faults_sdc_copy")->metric).value(),
      1u);
  EXPECT_EQ(series_of(t, "fault_events").last(), 4.0);
}

TEST(TelemetryTest, HarnessRunWithoutSdcHasNoSdcCounters) {
  fw::HarnessConfig config;
  config.num_streams = 2;
  config.collect_telemetry = true;
  rodinia::AppParams small;
  small.size = 64;
  const auto result = fw::Harness(config).run(
      {rodinia::make_app("gaussian", small), rodinia::make_app("needle", small)});
  ASSERT_NE(result.telemetry, nullptr);
  EXPECT_EQ(result.telemetry->registry().find("faults_sdc_copy"), nullptr);
  EXPECT_EQ(result.telemetry->registry().find("faults_sdc_kernel"), nullptr);
}

// Export golden: FNV-1a of the `hqrun --metrics` JSON for one telemetry run
// with copy and launch faults injected. Pins every byte the observer writes.
constexpr std::uint64_t kPinnedHarnessMetricsJsonFnv = 0xdefc4de7f601373dULL;

TEST(TelemetryTest, HarnessMetricsJsonIsPinnedByteForByte) {
  fw::HarnessConfig config;
  config.num_streams = 4;
  config.collect_telemetry = true;
  std::string error;
  const auto plan = fault::parse_fault_plan(
      "copy-stall-rate=0.2,copy-stall-us=50,launch-fail-rate=0.2,seed=3",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  config.fault_plan = *plan;
  rodinia::AppParams small;
  small.size = 64;
  const auto result = fw::Harness(config).run(
      {rodinia::make_app("gaussian", small), rodinia::make_app("needle", small),
       rodinia::make_app("gaussian", small),
       rodinia::make_app("needle", small)});
  ASSERT_NE(result.telemetry, nullptr);
  ASSERT_GT(result.degraded.stats.total(), 0u);
  const std::string json = metrics_json(
      fw::telemetry_run_info(config, result, "gaussian+needle", "naive-fifo"),
      result.telemetry->registry(), fw::telemetry_app_reports(result));
  Fnv1a64 h;
  for (const char c : json) h.mix_byte(static_cast<std::uint8_t>(c));
  EXPECT_EQ(h.value(), kPinnedHarnessMetricsJsonFnv)
      << std::hex << "harness metrics JSON bytes moved: 0x" << h.value();
}

// ------------------------------------------------------- zero perturbation

TEST(TelemetryTest, AttachingTelemetryLeavesTraceDigestBitIdentical) {
  const auto run_digest = [](bool telemetry) {
    fw::HarnessConfig config;
    config.num_streams = 4;
    config.collect_telemetry = telemetry;
    rodinia::AppParams small;
    small.size = 64;
    const auto result = fw::Harness(config).run(
        {rodinia::make_app("gaussian", small),
         rodinia::make_app("needle", small),
         rodinia::make_app("gaussian", small),
         rodinia::make_app("needle", small)});
    return trace::digest(*result.trace);
  };
  EXPECT_EQ(run_digest(false), run_digest(true));
}

TEST(TelemetryTest, ObserverFanoutForwardsToAllChildren) {
  gpu::ObserverFanout fanout;
  TelemetryObserver a = make_observer();
  TelemetryObserver b = make_observer();
  fanout.add(&a);
  fanout.add(nullptr);  // ignored
  fanout.add(&b);
  EXPECT_EQ(fanout.size(), 2u);
  fanout.on_copy_enqueued(0, CopyDirection::HtoD, 1, 0, 0, 100);
  fanout.on_op_completed(10, 1, 0);
  EXPECT_EQ(a.events_observed(), 2u);
  EXPECT_EQ(b.events_observed(), 2u);
}

}  // namespace
}  // namespace hq::obs
