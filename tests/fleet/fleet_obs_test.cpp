// The fleet observability plane: attaching per-device telemetry, the job
// lifecycle tracer, and fleet-scope metrics must leave the pinned golden
// fleet digests untouched (zero-perturbation); every export (fleet metrics
// JSON, device-labeled Prometheus, multi-device Chrome trace, snapshot
// JSONL) must be byte-identical across runs; and the recorded lifecycle
// chains must tell a coherent story (monotone times, arrival -> placement
// -> dispatch -> terminal, steal hops where the scheduler stole).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "fleet/telemetry.hpp"
#include "rodinia/registry.hpp"
#include "tests/common/json_check.hpp"
#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fleet {
namespace {

using fw::testing::SyntheticApp;

// The golden_fleet_test scenarios, re-run with the observability plane on.
constexpr std::uint64_t kPinnedHomogeneousDigest = 0x70c928e43781767aULL;
constexpr std::uint64_t kPinnedHeterogeneousDigest = 0xf3bd565f7c28cf7cULL;

serve::ServiceConfig golden_base() {
  serve::ServiceConfig config;
  config.window = 10 * kMillisecond;
  config.mean_interarrival = 100 * kMicrosecond;
  config.num_streams = 2;
  config.max_inflight = 2;
  SyntheticApp::Spec spec;
  spec.num_kernels = 3;
  spec.block_duration = 30 * kMicrosecond;
  config.classes.push_back(
      {fw::WorkloadItem{"synthetic",
                        [spec] { return std::make_unique<SyntheticApp>(spec); }},
       0});
  config.collect_metrics = true;
  return config;
}

FleetConfig homogeneous_config() {
  FleetConfig config;
  config.base = golden_base();
  config.resize_homogeneous(4);
  config.placement = PlacementPolicy::LeastLoaded;
  return config;
}

FleetConfig heterogeneous_config() {
  FleetConfig config;
  config.base = golden_base();
  config.devices = {
      gpu::DeviceSpec::tesla_k20(), gpu::DeviceSpec::tesla_k20(),
      gpu::DeviceSpec::single_copy_engine(),
      gpu::DeviceSpec::single_copy_engine()};
  config.placement = PlacementPolicy::CopyAware;
  config.work_stealing = true;
  return config;
}

/// Class-affinity with a single class funnels everything to device 0, so
/// peers must steal — guarantees Stolen lifecycle events and flow arrows.
FleetConfig stealing_config() {
  FleetConfig config;
  config.base = golden_base();
  config.base.mean_interarrival = 50 * kMicrosecond;
  config.base.queue_cap = 16;
  config.resize_homogeneous(4);
  config.placement = PlacementPolicy::ClassAffinity;
  config.work_stealing = true;
  return config;
}

TEST(FleetObsTest, ObserversLeaveGoldenDigestsPinned) {
  const FleetResult homog = FleetService(homogeneous_config()).run();
  EXPECT_EQ(fleet_report_digest(homog.report), kPinnedHomogeneousDigest)
      << std::hex << "digest moved with observers attached: 0x"
      << fleet_report_digest(homog.report);
  const FleetResult hetero = FleetService(heterogeneous_config()).run();
  EXPECT_EQ(fleet_report_digest(hetero.report), kPinnedHeterogeneousDigest)
      << std::hex << "digest moved with observers attached: 0x"
      << fleet_report_digest(hetero.report);
}

TEST(FleetObsTest, ResultCarriesObservabilityOnlyWhenAsked) {
  const FleetResult on = FleetService(homogeneous_config()).run();
  ASSERT_EQ(on.devices.size(), 4u);
  for (const FleetDeviceResult& dev : on.devices) {
    EXPECT_NE(dev.telemetry, nullptr);
    EXPECT_NE(dev.metrics, nullptr);
  }
  EXPECT_NE(on.lifecycle, nullptr);
  EXPECT_NE(on.fleet_metrics, nullptr);

  FleetConfig off_config = homogeneous_config();
  off_config.base.collect_metrics = false;
  const FleetResult off = FleetService(off_config).run();
  for (const FleetDeviceResult& dev : off.devices) {
    EXPECT_EQ(dev.telemetry, nullptr);
    EXPECT_EQ(dev.metrics, nullptr);
  }
  EXPECT_EQ(off.lifecycle, nullptr);
  EXPECT_EQ(off.fleet_metrics, nullptr);
}

TEST(FleetObsTest, EveryExportIsByteIdenticalAcrossRuns) {
  const FleetResult a = FleetService(heterogeneous_config()).run();
  const FleetResult b = FleetService(heterogeneous_config()).run();
  EXPECT_EQ(fleet_metrics_json(a), fleet_metrics_json(b));
  EXPECT_EQ(fleet_prometheus_text(a), fleet_prometheus_text(b));
  EXPECT_EQ(fleet_chrome_trace_json(a), fleet_chrome_trace_json(b));
  EXPECT_EQ(fleet_snapshots_jsonl(a, 500 * kMicrosecond),
            fleet_snapshots_jsonl(b, 500 * kMicrosecond));
}

TEST(FleetObsTest, FleetMetricsJsonIsWellFormedAndVersioned) {
  const FleetResult result = FleetService(homogeneous_config()).run();
  const std::string json = fleet_metrics_json(result);
  EXPECT_TRUE(hq::testing::json_well_formed(json));
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"devices\": ["), std::string::npos);
  EXPECT_NE(json.find("\"fleet_metrics\": ["), std::string::npos);
  EXPECT_NE(json.find("\"merged_metrics\": ["), std::string::npos);
  // Fleet-scope latency breakdowns with exact percentiles.
  EXPECT_NE(json.find("fleet_job_queue_wait_ns"), std::string::npos);
  EXPECT_NE(json.find("fleet_job_placement_ns"), std::string::npos);
  EXPECT_NE(json.find("fleet_job_service_ns"), std::string::npos);
  EXPECT_NE(json.find("fleet_job_turnaround_ns_p99_ns"), std::string::npos);
}

TEST(FleetObsTest, PrometheusCarriesDeviceLabelsAndMovementCounters) {
  const FleetResult result = FleetService(stealing_config()).run();
  const std::string prom = fleet_prometheus_text(result);
  for (int d = 0; d < 4; ++d) {
    const std::string label = "{device=\"" + std::to_string(d) + "\"}";
    EXPECT_NE(prom.find("hq_serve_arrived" + label), std::string::npos)
        << "device " << d;
    EXPECT_NE(prom.find("hq_device_stolen_in" + label), std::string::npos);
    EXPECT_NE(prom.find("hq_device_requeued_in" + label), std::string::npos);
    EXPECT_NE(prom.find("hq_device_breaker_trips" + label),
              std::string::npos);
  }
  // Fleet-scope counters render unlabeled; merged series as hq_fleet_*.
  EXPECT_NE(prom.find("\nhq_fleet_steal_hops "), std::string::npos);
  EXPECT_NE(prom.find("\nhq_fleet_serve_arrived "), std::string::npos);
}

TEST(FleetObsTest, LifecycleChainsAreCoherent) {
  const FleetResult result = FleetService(homogeneous_config()).run();
  const serve::JobLifecycleTracer& tracer = *result.lifecycle;
  ASSERT_EQ(tracer.num_jobs(), result.jobs.size());
  for (const serve::JobRecord& job : result.jobs) {
    const std::vector<serve::JobEvent>& chain = tracer.events(job.job_id);
    ASSERT_FALSE(chain.empty()) << "job " << job.job_id;
    EXPECT_EQ(chain.front().kind, serve::JobEventKind::Arrived);
    EXPECT_EQ(chain.front().at, job.arrived_at);
    for (std::size_t i = 1; i < chain.size(); ++i) {
      EXPECT_LE(chain[i - 1].at, chain[i].at) << "job " << job.job_id;
    }
    if (job.state == serve::JobState::CompletedOk) {
      EXPECT_EQ(chain.back().kind, serve::JobEventKind::CompletedOk);
      EXPECT_EQ(chain.back().at, job.completed_at);
      bool dispatched = false;
      for (const serve::JobEvent& e : chain) {
        if (e.kind == serve::JobEventKind::Dispatched) {
          dispatched = true;
          EXPECT_EQ(e.at, job.dispatched_at);
          EXPECT_EQ(e.device, result.owners[std::size_t(job.job_id)]);
        }
      }
      EXPECT_TRUE(dispatched) << "job " << job.job_id;
    }
  }
}

TEST(FleetObsTest, StealHopsAreRecordedAndDrawnAsFlows) {
  const FleetResult result = FleetService(stealing_config()).run();
  EXPECT_GT(result.report.stolen, 0u);
  EXPECT_EQ(result.lifecycle->steal_hops(), result.report.stolen);

  std::uint64_t stolen_events = 0;
  for (std::size_t job = 0; job < result.lifecycle->num_jobs(); ++job) {
    for (const serve::JobEvent& e :
         result.lifecycle->events(static_cast<int>(job))) {
      if (e.kind != serve::JobEventKind::Stolen) continue;
      ++stolen_events;
      EXPECT_EQ(e.from_device, 0);  // class-affinity funnels to device 0
      EXPECT_GT(e.device, 0);
    }
  }
  EXPECT_EQ(stolen_events, result.report.stolen);

  const std::string trace = fleet_chrome_trace_json(result);
  EXPECT_TRUE(hq::testing::json_well_formed(trace));
  EXPECT_NE(trace.find("\"name\": \"steal\", \"cat\": \"flow\", "
                       "\"ph\": \"s\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"f\""), std::string::npos);
}

/// Chaos scenario with the observability plane on: device 0 crashes
/// mid-window while injecting copy stalls, hedging races its stragglers.
FleetConfig chaos_obs_config() {
  FleetConfig config;
  config.base = golden_base();
  config.resize_homogeneous(3);
  config.placement = PlacementPolicy::LeastLoaded;
  config.hedging = true;
  config.hedge_threshold = 1.5;
  config.hedge_min_samples = 2;
  fault::FaultPlan chaotic = fault::FaultPlan::zero();
  chaotic.copy_stall_rate = 0.5;
  chaotic.copy_stall_ns = kMillisecond;
  chaotic.crash_at = 6 * kMillisecond;
  config.device_fault_plans = {chaotic, fault::FaultPlan{},
                               fault::FaultPlan{}};
  return config;
}

TEST(FleetObsTest, FaultAndFaultDomainCountersSurfaceInExports) {
  const FleetResult result = FleetService(chaos_obs_config()).run();
  const std::string prom = fleet_prometheus_text(result);

  // Per-device fault-injector counters carry device labels and roll up
  // into the merged hq_fleet_* series.
  EXPECT_NE(prom.find("hq_fault_injected_total{device=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("hq_fault_copy_stalls{device=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("\nhq_fleet_fault_injected_total "), std::string::npos);
  EXPECT_NE(prom.find("\nhq_fleet_fault_copy_stalls "), std::string::npos);
  // Fault-domain counters: device-labeled and fleet-scope.
  EXPECT_NE(prom.find("hq_device_lifecycle_downs{device=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("\nhq_fleet_failed_over "), std::string::npos);
  EXPECT_NE(prom.find("\nhq_fleet_hedges_launched "), std::string::npos);
  EXPECT_NE(prom.find("\nhq_fleet_shed_failover_exhausted "),
            std::string::npos);

  const std::string json = fleet_metrics_json(result);
  EXPECT_TRUE(hq::testing::json_well_formed(json));
  EXPECT_NE(json.find("fault_injected_total"), std::string::npos);
  EXPECT_NE(json.find("device_lifecycle_downs"), std::string::npos);
  EXPECT_NE(json.find("fleet_failed_over"), std::string::npos);
}

TEST(FleetObsTest, FailoverAndHedgeHopsAreRecordedAndDrawnAsFlows) {
  const FleetResult result = FleetService(chaos_obs_config()).run();
  EXPECT_EQ(result.lifecycle->failover_hops(), result.report.failed_over);
  EXPECT_EQ(result.lifecycle->hedge_launches(),
            result.report.hedges_launched);
  ASSERT_GT(result.report.failed_over + result.report.hedges_launched, 0u);

  const std::string trace = fleet_chrome_trace_json(result);
  EXPECT_TRUE(hq::testing::json_well_formed(trace));
  if (result.report.failed_over > 0) {
    EXPECT_NE(trace.find("\"name\": \"failover\", \"cat\": \"flow\", "
                         "\"ph\": \"s\""),
              std::string::npos);
  }
  if (result.report.hedges_launched > 0) {
    EXPECT_NE(trace.find("\"name\": \"hedge\", \"cat\": \"flow\", "
                         "\"ph\": \"s\""),
              std::string::npos);
  }
}

TEST(FleetObsTest, ChromeTraceHasOneProcessLanePerDevice) {
  const FleetResult result = FleetService(heterogeneous_config()).run();
  const std::string trace = fleet_chrome_trace_json(result);
  EXPECT_TRUE(hq::testing::json_well_formed(trace));
  for (int d = 0; d < 4; ++d) {
    std::ostringstream meta;
    meta << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << d;
    EXPECT_NE(trace.find(meta.str()), std::string::npos) << "device " << d;
  }
  // Per-device counter tracks ride along on each pid.
  EXPECT_NE(trace.find("\"name\": \"serve_queue_depth\", \"ph\": \"C\""),
            std::string::npos);
}

TEST(FleetObsTest, SnapshotsAreClampedDeterministicJsonLines) {
  const FleetResult result = FleetService(homogeneous_config()).run();
  const DurationNs interval = 2 * kMillisecond;
  const std::vector<FleetSnapshot> snaps =
      sample_fleet_snapshots(result, interval);
  ASSERT_GE(snaps.size(), 2u);
  EXPECT_EQ(snaps.front().t, 0);
  EXPECT_EQ(snaps.back().t, result.report.total_time);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GT(snaps[i].t, snaps[i - 1].t);
    ASSERT_EQ(snaps[i].devices.size(), 4u);
  }
  // The final snapshot agrees with the report: all queues drained and the
  // per-device completed counters sum to the fleet total.
  double completed = 0;
  for (const DeviceSnapshot& dev : snaps.back().devices) {
    EXPECT_EQ(dev.queue_depth, 0.0);
    EXPECT_EQ(dev.inflight, 0.0);
    completed += dev.completed;
  }
  EXPECT_EQ(completed, static_cast<double>(result.report.completed));

  const std::string jsonl = fleet_snapshots_jsonl(result, interval);
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t line_count = 0;
  while (std::getline(lines, line)) {
    ++line_count;
    EXPECT_TRUE(hq::testing::json_well_formed(line)) << line;
    EXPECT_NE(line.find("\"schema_version\": 1"), std::string::npos);
  }
  EXPECT_EQ(line_count, snaps.size());

  EXPECT_ANY_THROW(sample_fleet_snapshots(result, 0));
}

/// Small chaos fleet for the export golden: four devices running the
/// rodinia gaussian/needle mix with a crash, a flap and a kernel-SDC plan,
/// stealing, failover, hedging and spot checks on. Exercises every
/// TelemetryObserver callback and every rollup merge rule in ~20 ms of
/// simulated time.
FleetConfig export_golden_config() {
  FleetConfig config;
  rodinia::AppParams params;
  params.size = 64;
  config.base.classes.push_back({rodinia::make_app("gaussian", params), 0});
  config.base.classes.push_back({rodinia::make_app("needle", params), 0});
  config.base.window = 20 * kMillisecond;
  config.base.mean_interarrival = 60 * kMicrosecond;
  config.base.num_streams = 4;
  config.base.max_inflight = 3;
  config.base.queue_cap = 24;
  config.base.deadline = 4 * kMillisecond;
  config.base.seed = 1;
  config.base.collect_metrics = true;
  config.resize_homogeneous(4);
  config.placement = PlacementPolicy::LeastLoaded;
  config.work_stealing = true;
  config.failover_budget = 2;
  config.hedging = true;
  config.integrity = IntegrityPolicy::SpotCheck;
  config.spotcheck_rate = 0.25;
  for (const char* text :
       {"crash-at-us=12000,seed=3",
        "flap-period-us=4000,flap-down-us=1000,flap-jitter=0.5,seed=5",
        "sdc-kernel-rate=0.2,seed=7", "disabled"}) {
    std::string error;
    const auto plan = fault::parse_fault_plan(text, &error);
    EXPECT_TRUE(plan.has_value()) << text << ": " << error;
    config.device_fault_plans.push_back(plan.value_or(fault::FaultPlan{}));
  }
  return config;
}

std::uint64_t fnv1a(const std::string& bytes) {
  Fnv1a64 h;
  for (const char c : bytes) h.mix_byte(static_cast<std::uint8_t>(c));
  return h.value();
}

// Export goldens: the FNV-1a of the fleet Prometheus text and of the fleet
// metrics JSON for the chaos scenario above. Any change to the telemetry
// observer or the rollup merge that moves a single export byte fails here.
// The metrics JSON embeds the report digest, so it was re-pinned 2026-10 for
// fleet report schema v2; the Prometheus text does not and was not.
constexpr std::uint64_t kPinnedChaosPrometheusFnv = 0xa6cebfab3dda77faULL;
constexpr std::uint64_t kPinnedChaosMetricsJsonFnv = 0xd08d7d352f53334dULL;
// The two series readers the exports above do not cover: the Chrome trace's
// counter tracks (obs::counter_tracks walks every point) and the snapshot
// JSONL (Series::value_at decodes one chunk of each series). The trace was
// re-pinned when span ts/dur moved to the shortest round-trip form.
constexpr std::uint64_t kPinnedChaosChromeTraceFnv = 0x981191f4b4ad7be8ULL;
constexpr std::uint64_t kPinnedChaosSnapshotsFnv = 0x1ad2236d6a047f10ULL;

TEST(FleetObsTest, ChaosExportsArePinnedByteForByte) {
  const FleetResult result = FleetService(export_golden_config()).run();
  ASSERT_GT(result.report.failed_over, 0u);
  ASSERT_GT(result.report.sdc_injected, 0u);
  const std::string prom = fleet_prometheus_text(result);
  const std::string json = fleet_metrics_json(result);
  EXPECT_NE(prom.find("hq_device_sdc_injected{device=\"2\"}"),
            std::string::npos);
  EXPECT_EQ(fnv1a(prom), kPinnedChaosPrometheusFnv)
      << std::hex << "fleet Prometheus bytes moved: 0x" << fnv1a(prom);
  EXPECT_EQ(fnv1a(json), kPinnedChaosMetricsJsonFnv)
      << std::hex << "fleet metrics JSON bytes moved: 0x" << fnv1a(json);
  const std::string trace = fleet_chrome_trace_json(result);
  const std::string snaps = fleet_snapshots_jsonl(result, 500 * kMicrosecond);
  EXPECT_EQ(fnv1a(trace), kPinnedChaosChromeTraceFnv)
      << std::hex << "fleet Chrome trace bytes moved: 0x" << fnv1a(trace);
  EXPECT_EQ(fnv1a(snaps), kPinnedChaosSnapshotsFnv)
      << std::hex << "fleet snapshot JSONL bytes moved: 0x" << fnv1a(snaps);
}

// The hqserve text report of the same scenario, rendered from two runs.
constexpr std::uint64_t kPinnedChaosReportTextFnv = 0xaaf095a10bf043c4ULL;

TEST(FleetObsTest, ChaosTextReportIsPinnedByteForByte) {
  std::string texts[2];
  for (std::string& text : texts) {
    std::ostringstream os;
    render_fleet_report_text(os,
                             FleetService(export_golden_config()).run().report);
    text = os.str();
  }
  EXPECT_EQ(texts[0], texts[1]);
  EXPECT_EQ(texts[0].rfind("fleet report: ", 0), 0u) << texts[0];
  EXPECT_EQ(fnv1a(texts[0]), kPinnedChaosReportTextFnv)
      << std::hex << "fleet text report bytes moved: 0x" << fnv1a(texts[0]);
}

// The varint series store's budget on a real run: chunk slack and every
// series dictionary included, the device registries hold at most 3 bytes
// per stored point (8-byte packed points read 8.42, 16-byte ones over 16).
TEST(FleetObsTest, ChaosSeriesStoreAtMostThreeBytesPerPoint) {
  const FleetResult result = FleetService(export_golden_config()).run();
  std::size_t points = 0;
  std::size_t bytes = 0;
  for (const FleetDeviceResult& dev : result.devices) {
    dev.metrics->for_each([&](const obs::MetricsRegistry::Entry& e) {
      if (e.kind != obs::MetricKind::Series) return;
      const auto& series = std::get<obs::Series>(e.metric);
      points += series.size();
      bytes += series.storage_bytes();
    });
  }
  ASSERT_GT(points, 100'000u);
  EXPECT_LE(static_cast<double>(bytes), 3.0 * static_cast<double>(points))
      << bytes << " bytes for " << points << " points";
}

TEST(FleetObsTest, ExportsRequireMetricsCollection) {
  FleetConfig config = homogeneous_config();
  config.base.collect_metrics = false;
  const FleetResult result = FleetService(config).run();
  EXPECT_ANY_THROW(fleet_metrics_json(result));
  EXPECT_ANY_THROW(fleet_prometheus_text(result));
  EXPECT_ANY_THROW(fleet_chrome_trace_json(result));
  EXPECT_ANY_THROW(fleet_snapshots_jsonl(result, kMillisecond));
}

}  // namespace
}  // namespace hq::fleet
