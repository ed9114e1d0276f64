// Behavioral tests for the fleet serving engine: conservation and
// job-identity invariants, work stealing, device-breaker rebalancing, the
// cluster-scaling acceptance criterion (a 4-device fleet beats the single
// device under every placement policy at 4x its saturation arrival rate),
// and byte-identical reports across runs and job counts.
#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "fleet/report.hpp"
#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fleet {
namespace {

using fw::testing::SyntheticApp;

serve::ServiceConfig serve_base() {
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
  config.collect_metrics = false;
  return config;
}

/// Arrivals at ~4x the rate two streams / two inflight slots can serve, so
/// a single device saturates and a 4-device fleet has real work to spread.
serve::ServiceConfig saturating_base() {
  serve::ServiceConfig config = serve_base();
  config.mean_interarrival = 50 * kMicrosecond;
  config.queue_cap = 8;
  return config;
}

/// The saturating mix split over four classes, so class-affinity has
/// distinct affinities to spread (one class degenerates it to device 0).
serve::ServiceConfig saturating_multiclass_base() {
  serve::ServiceConfig config = saturating_base();
  config.classes.clear();
  SyntheticApp::Spec spec;
  spec.num_kernels = 3;
  spec.block_duration = 30 * kMicrosecond;
  for (const char* name : {"synth-a", "synth-b", "synth-c", "synth-d"}) {
    config.classes.push_back(
        {fw::WorkloadItem{name, [spec] { return std::make_unique<SyntheticApp>(
                                    spec); }},
         0});
  }
  return config;
}

void check_conservation(const FleetReport& r) {
  EXPECT_EQ(r.arrived, r.completed_ok + r.completed_late + r.shed_queue_full +
                           r.shed_breaker + r.shed_no_device +
                           r.timed_out_queued + r.quarantined);
  std::uint64_t device_arrived = 0;
  for (const FleetDeviceStats& dev : r.devices) {
    device_arrived += dev.report.arrived;
  }
  EXPECT_EQ(device_arrived + r.shed_no_device, r.arrived);
}

/// Every job id appears exactly once, owners match the per-device reports,
/// and no job was duplicated or lost by placement, stealing, or rebalance.
void check_job_identity(const FleetResult& result) {
  const std::size_t n = result.jobs.size();
  ASSERT_EQ(result.owners.size(), n);
  std::set<int> seen;
  std::vector<std::uint64_t> owned(result.report.num_devices, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const serve::JobRecord& job = result.jobs[i];
    EXPECT_EQ(job.job_id, static_cast<int>(i));
    EXPECT_TRUE(seen.insert(job.job_id).second) << "duplicate id " << i;
    const int owner = result.owners[i];
    if (job.state == serve::JobState::ShedNoDevice) {
      EXPECT_EQ(owner, -1);
    } else {
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, static_cast<int>(result.report.num_devices));
      ++owned[static_cast<std::size_t>(owner)];
    }
  }
  for (std::size_t d = 0; d < result.report.num_devices; ++d) {
    EXPECT_EQ(owned[d], result.report.devices[d].report.arrived)
        << "device " << d;
  }
}

TEST(FleetTest, FleetReportIsByteIdenticalAcrossRuns) {
  FleetConfig config;
  config.base = saturating_base();
  config.resize_homogeneous(3);
  config.placement = PlacementPolicy::LeastLoaded;
  config.work_stealing = true;
  const FleetResult a = FleetService(config).run();
  const FleetResult b = FleetService(config).run();
  EXPECT_EQ(fleet_report_json(a.report), fleet_report_json(b.report));
  EXPECT_EQ(fleet_report_digest(a.report), fleet_report_digest(b.report));
}

TEST(FleetTest, FleetReportIsByteIdenticalAcrossJobCounts) {
  // Shard four distinct fleet configs over 1 worker and over 8; the JSON
  // bytes must match in index order.
  const auto run_config = [](std::size_t i) {
    FleetConfig config;
    config.base = saturating_base();
    config.base.seed = 20 + i;
    config.resize_homogeneous(2 + i % 3);
    config.placement = all_placement_policies()[i % 4];
    config.work_stealing = i % 2 == 0;
    return fleet_report_json(FleetService(config).run().report);
  };
  const auto serial = exec::parallel_map_jobs(1, 4, run_config);
  const auto threaded = exec::parallel_map_jobs(8, 4, run_config);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "config " << i;
  }
}

TEST(FleetTest, FourDevicesBeatOneUnderEveryPolicyAtSaturation) {
  // The acceptance criterion: at 4x single-device saturation load, adding
  // devices must raise goodput under EVERY placement policy.
  FleetConfig single;
  single.base = saturating_multiclass_base();
  const double single_goodput =
      FleetService(single).run().report.goodput_per_sec;
  ASSERT_GT(single_goodput, 0.0);

  for (const PlacementPolicy policy : all_placement_policies()) {
    FleetConfig fleet;
    fleet.base = saturating_multiclass_base();
    fleet.resize_homogeneous(4);
    fleet.placement = policy;
    const FleetResult result = FleetService(fleet).run();
    EXPECT_GT(result.report.goodput_per_sec, single_goodput)
        << placement_policy_name(policy);
    check_conservation(result.report);
    check_job_identity(result);
  }
}

TEST(FleetTest, WorkStealingMovesJobsAndPreservesJobIdentity) {
  // Class-affinity with one class funnels every arrival to device 0; with
  // stealing on, the idle peers must take work from its queue, and no job
  // may be duplicated or lost in transit.
  FleetConfig config;
  config.base = saturating_base();
  config.base.queue_cap = 16;
  config.resize_homogeneous(4);
  config.placement = PlacementPolicy::ClassAffinity;
  config.work_stealing = true;
  const FleetResult result = FleetService(config).run();

  EXPECT_GT(result.report.stolen, 0u);
  EXPECT_EQ(result.report.placement_histogram[0], result.report.arrived);
  std::uint64_t stolen_in = 0;
  std::uint64_t stolen_out = 0;
  for (const FleetDeviceStats& dev : result.report.devices) {
    stolen_in += dev.stolen_in;
    stolen_out += dev.stolen_out;
  }
  EXPECT_EQ(stolen_in, result.report.stolen);
  EXPECT_EQ(stolen_out, result.report.stolen);
  EXPECT_EQ(result.report.devices[0].stolen_in, 0u);
  check_conservation(result.report);
  check_job_identity(result);

  // Stealing strictly helps here: the no-steal run completes less.
  FleetConfig no_steal = config;
  no_steal.work_stealing = false;
  const FleetResult baseline = FleetService(no_steal).run();
  EXPECT_GT(result.report.completed, baseline.report.completed);
}

TEST(FleetTest, DeviceBreakerQuarantinesAndRebalances) {
  // A hot allocation-fault plan quarantines jobs (pinned allocs exhaust
  // their bounded retries) until the per-device health breakers trip;
  // tripped devices must hand their queued jobs to healthy peers
  // (requeued) without breaking conservation or job identity.
  FleetConfig config;
  config.base = saturating_base();
  // Slow jobs keep the queues deep, so a tripping device has something to
  // hand over.
  config.base.classes.clear();
  SyntheticApp::Spec slow;
  slow.num_kernels = 4;
  slow.block_duration = 100 * kMicrosecond;
  config.base.classes.push_back(
      {fw::WorkloadItem{"slow", [slow] {
                          return std::make_unique<SyntheticApp>(slow);
                        }},
       0});
  config.base.queue_cap = 16;
  config.base.fault_plan.enabled = true;
  config.base.fault_plan.seed = 5;
  config.base.fault_plan.host_alloc_failure_rate = 0.85;
  config.resize_homogeneous(2);
  config.placement = PlacementPolicy::RoundRobin;
  config.device_breaker_enabled = true;
  config.device_breaker.failure_threshold = 2;
  config.device_breaker.cooldown = 500 * kMicrosecond;
  const FleetResult result = FleetService(config).run();

  EXPECT_GT(result.report.quarantined, 0u);
  EXPECT_GT(result.report.device_breaker_trips, 0u);
  EXPECT_GT(result.report.requeued, 0u);
  std::uint64_t requeued_in = 0;
  std::uint64_t requeued_out = 0;
  for (const FleetDeviceStats& dev : result.report.devices) {
    requeued_in += dev.requeued_in;
    requeued_out += dev.requeued_out;
    EXPECT_FALSE(dev.breaker_final_state.empty());
  }
  EXPECT_EQ(requeued_in, result.report.requeued);
  // Rebalanced jobs that get shed at the new device's full queue are
  // counted out of the victim but land as shed, not as requeued_in.
  EXPECT_GE(requeued_out, requeued_in);
  check_conservation(result.report);
  check_job_identity(result);

  // The run is still deterministic under faults + rebalancing.
  const FleetResult again = FleetService(config).run();
  EXPECT_EQ(fleet_report_json(result.report), fleet_report_json(again.report));
}

TEST(FleetTest, HeterogeneousFleetRunsAndConserves) {
  FleetConfig config;
  config.base = saturating_base();
  config.devices = {gpu::DeviceSpec::tesla_k20(),
                    gpu::DeviceSpec::single_copy_engine()};
  config.placement = PlacementPolicy::CopyAware;
  const FleetResult result = FleetService(config).run();
  ASSERT_EQ(result.report.devices.size(), 2u);
  EXPECT_NE(result.report.devices[0].name, result.report.devices[1].name);
  EXPECT_GT(result.report.completed, 0u);
  check_conservation(result.report);
  check_job_identity(result);
}

TEST(FleetTest, ValidateRejectsBadConfigs) {
  FleetConfig config;  // no classes
  EXPECT_THROW(FleetService(config).run(), hq::Error);

  FleetConfig bad_penalty;
  bad_penalty.base = serve_base();
  bad_penalty.copy_penalty = -1.0;
  EXPECT_THROW(bad_penalty.validate(), hq::Error);
}

}  // namespace
}  // namespace hq::fleet
