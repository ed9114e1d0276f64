// Fleet fault-domain tests: device-lifecycle chaos (crash/flap/degrade),
// in-flight job failover with budgets, hedged dispatch, and the
// zero-perturbation contract — inert fault-domain knobs leave the fleet
// report byte-identical to the chaos-free run apart from the config echo.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/lifecycle.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "rodinia/registry.hpp"
#include "serve/report.hpp"
#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fleet {
namespace {

using fw::testing::SyntheticApp;

serve::ServiceConfig chaos_base() {
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

FleetConfig chaos_fleet(std::size_t devices) {
  FleetConfig config;
  config.base = chaos_base();
  config.resize_homogeneous(devices);
  config.placement = PlacementPolicy::LeastLoaded;
  return config;
}

fault::FaultPlan crash_plan(TimeNs at) {
  fault::FaultPlan plan = fault::FaultPlan::zero();
  plan.crash_at = at;
  return plan;
}

fault::FaultPlan disabled_plan() { return fault::FaultPlan{}; }

/// The chaos conservation identity: every arrival ends in exactly one
/// terminal state, including the fleet-only failover-exhausted one.
void check_chaos_conservation(const FleetResult& result) {
  const FleetReport& r = result.report;
  EXPECT_EQ(r.arrived, r.completed_ok + r.completed_late + r.shed_queue_full +
                           r.shed_breaker + r.shed_no_device +
                           r.timed_out_queued + r.quarantined +
                           r.shed_failover_exhausted);
  std::uint64_t device_arrived = 0;
  for (const FleetDeviceStats& dev : r.devices) {
    device_arrived += dev.report.arrived;
  }
  EXPECT_EQ(device_arrived + r.shed_no_device + r.shed_failover_exhausted,
            r.arrived);
  // Job-level: ids unique, every job terminal, owners match the fleet-only
  // states.
  std::set<int> seen;
  std::uint64_t exhausted = 0;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const serve::JobRecord& job = result.jobs[i];
    EXPECT_TRUE(seen.insert(job.job_id).second) << "duplicate id " << i;
    EXPECT_NE(job.state, serve::JobState::Queued) << "job " << i;
    EXPECT_NE(job.state, serve::JobState::Inflight) << "job " << i;
    if (job.state == serve::JobState::ShedNoDevice ||
        job.state == serve::JobState::ShedFailoverExhausted) {
      EXPECT_EQ(result.owners[i], -1) << "job " << i;
    } else {
      EXPECT_GE(result.owners[i], 0) << "job " << i;
    }
    if (job.state == serve::JobState::ShedFailoverExhausted) ++exhausted;
  }
  EXPECT_EQ(exhausted, r.shed_failover_exhausted);
}

TEST(FleetChaosTest, CrashFailsOverQueuedAndRunningJobs) {
  FleetConfig config = chaos_fleet(3);
  config.device_fault_plans = {crash_plan(3 * kMillisecond), disabled_plan(),
                               disabled_plan()};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  EXPECT_EQ(r.devices[0].lifecycle_downs, 1u);
  // The crash displaced at least the jobs running on device 0 at t=3ms.
  EXPECT_GT(r.failed_over + r.shed_failover_exhausted, 0u);
  EXPECT_EQ(r.devices[0].failed_over_in, 0u);
  EXPECT_EQ(r.failed_over,
            r.devices[1].failed_over_in + r.devices[2].failed_over_in);
  // Post-crash arrivals land on the survivors only; everyone still
  // completes (two healthy devices absorb this load).
  EXPECT_GT(r.completed, 0u);
  check_chaos_conservation(result);
}

TEST(FleetChaosTest, CrashedDeviceAcceptsNoWorkAfterCrash) {
  FleetConfig config = chaos_fleet(2);
  const TimeNs crash_at = 2 * kMillisecond;
  config.base.collect_metrics = true;
  config.device_fault_plans = {crash_plan(crash_at), disabled_plan()};
  FleetResult result = FleetService(config).run();

  // No lifecycle event places, dispatches, or completes anything on device
  // 0 after the crash instant.
  for (const serve::JobRecord& job : result.jobs) {
    for (const serve::JobEvent& e : result.lifecycle->events(job.job_id)) {
      if (e.device != 0) continue;
      if (e.kind == serve::JobEventKind::Placed ||
          e.kind == serve::JobEventKind::Dispatched ||
          e.kind == serve::JobEventKind::CompletedOk ||
          e.kind == serve::JobEventKind::CompletedLate) {
        EXPECT_LE(e.at, crash_at)
            << "job " << job.job_id << " event "
            << serve::job_event_kind_name(e.kind) << " on the dead device";
      }
    }
  }
  check_chaos_conservation(result);
}

TEST(FleetChaosTest, AllDevicesDeadDrainsCleanly) {
  FleetConfig config = chaos_fleet(2);
  config.device_fault_plans = {crash_plan(2 * kMillisecond),
                               crash_plan(2 * kMillisecond)};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  // The run terminates (no hang), post-crash arrivals shed as no-device,
  // and displaced in-flight jobs exhaust with no survivor to take them.
  EXPECT_GT(r.shed_no_device, 0u);
  EXPECT_GT(r.completed, 0u);  // pre-crash work still finished
  check_chaos_conservation(result);
  // Nothing completed after the crash.
  for (const serve::JobRecord& job : result.jobs) {
    if (job.state == serve::JobState::CompletedOk ||
        job.state == serve::JobState::CompletedLate) {
      EXPECT_LE(job.completed_at, 2 * kMillisecond);
    }
  }
}

TEST(FleetChaosTest, FailoverBudgetZeroExhaustsDisplacedJobs) {
  FleetConfig config = chaos_fleet(2);
  config.failover_budget = 0;
  config.device_fault_plans = {crash_plan(3 * kMillisecond), disabled_plan()};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  // With zero budget every displaced job exhausts instead of moving.
  EXPECT_EQ(r.failed_over, 0u);
  EXPECT_GT(r.shed_failover_exhausted, 0u);
  check_chaos_conservation(result);
}

TEST(FleetChaosTest, FlappingDeviceGoesDownAndRecovers) {
  FleetConfig config = chaos_fleet(2);
  fault::FaultPlan flappy = fault::FaultPlan::zero();
  flappy.flap_period = 2 * kMillisecond;
  flappy.flap_down = 500 * kMicrosecond;
  flappy.flap_jitter = 0.5;
  config.device_fault_plans = {flappy, disabled_plan()};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  // ~5 cycles in a 10ms window: the device went down repeatedly and came
  // back to do real work.
  EXPECT_GE(r.devices[0].lifecycle_downs, 2u);
  EXPECT_GT(r.devices[0].report.completed, 0u);
  check_chaos_conservation(result);
}

TEST(FleetChaosTest, DegradePlanThrottlesCopiesFromDegradeTime) {
  FleetConfig config = chaos_fleet(2);
  fault::FaultPlan derated = fault::FaultPlan::zero();
  derated.degrade_at = 2 * kMillisecond;
  derated.degrade_copy_factor = 3.0;
  config.device_fault_plans = {derated, disabled_plan()};
  FleetResult result = FleetService(config).run();

  // Degradation is not a down state: the device keeps serving, but its
  // copies run slower (surfaced through the throttle fault channel).
  EXPECT_EQ(result.report.devices[0].lifecycle_downs, 0u);
  EXPECT_GT(result.devices[0].fault_stats.throttled_copies, 0u);
  EXPECT_GT(result.report.devices[0].report.completed, 0u);
  check_chaos_conservation(result);
}

TEST(FleetChaosTest, HedgingRacesStragglersAndConserves) {
  FleetConfig config = chaos_fleet(3);
  config.hedging = true;
  config.hedge_threshold = 1.5;
  config.hedge_min_samples = 2;
  // Device 0's copies stall often: its jobs straggle and deadline-less
  // completions give the hedge a clear win to take.
  fault::FaultPlan laggy = fault::FaultPlan::zero();
  laggy.copy_stall_rate = 0.8;
  laggy.copy_stall_ns = 2 * kMillisecond;
  config.device_fault_plans = {laggy, disabled_plan(), disabled_plan()};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  EXPECT_GT(r.hedges_launched, 0u);
  EXPECT_EQ(r.hedges_launched,
            r.devices[0].hedges_run + r.devices[1].hedges_run +
                r.devices[2].hedges_run);
  // Every hedged job resolved exactly one way: the loser was cancelled
  // (or the race never finished two-sided because one side was cancelled
  // by something else first).
  EXPECT_LE(r.hedge_wins, r.hedges_launched);
  EXPECT_LE(r.hedges_cancelled, r.attempts_cancelled);
  check_chaos_conservation(result);
}

TEST(FleetChaosTest, HedgingOffIsByteIdenticalToBaseline) {
  // The hedging knobs are inert unless hedging is on: threshold/samples
  // changes must not move a single byte of the report apart from the
  // config echo.
  FleetConfig baseline = chaos_fleet(4);
  FleetConfig tuned = chaos_fleet(4);
  tuned.hedging = false;
  tuned.hedge_threshold = 9.75;
  tuned.hedge_min_samples = 1;
  tuned.failover_budget = 0;  // also inert without lifecycle faults
  const FleetReport a = FleetService(baseline).run().report;
  const FleetReport b = FleetService(tuned).run().report;
  EXPECT_EQ(fleet_report_json(a),
            fleet_report_json(with_config_echo_of(b, a)));
}

TEST(FleetChaosTest, DisabledPerDevicePlansAreInert) {
  // An all-disabled plan list is the same as no plan list at all.
  FleetConfig baseline = chaos_fleet(2);
  FleetConfig plans = chaos_fleet(2);
  plans.device_fault_plans = {disabled_plan(), disabled_plan()};
  const std::string a = fleet_report_json(FleetService(baseline).run().report);
  const std::string b = fleet_report_json(FleetService(plans).run().report);
  EXPECT_EQ(a, b);
}

TEST(FleetChaosTest, CrashRunsAreByteIdenticalAcrossRuns) {
  FleetConfig config = chaos_fleet(3);
  config.hedging = true;
  config.hedge_threshold = 2.0;
  config.device_fault_plans = {crash_plan(3 * kMillisecond), disabled_plan(),
                               crash_plan(7 * kMillisecond)};
  const std::string a = fleet_report_json(FleetService(config).run().report);
  const std::string b = fleet_report_json(FleetService(config).run().report);
  EXPECT_EQ(a, b);
}

TEST(FleetChaosTest, ExhaustedJobsNeverDispatchedAreSpanFree) {
  FleetConfig config = chaos_fleet(2);
  config.failover_budget = 0;
  config.base.collect_metrics = true;
  config.device_fault_plans = {crash_plan(3 * kMillisecond), disabled_plan()};
  FleetResult result = FleetService(config).run();

  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const serve::JobRecord& job = result.jobs[i];
    if (job.state != serve::JobState::ShedFailoverExhausted) continue;
    bool dispatched = false;
    for (const serve::JobEvent& e : result.lifecycle->events(job.job_id)) {
      if (e.kind == serve::JobEventKind::Dispatched) dispatched = true;
    }
    if (dispatched) continue;  // cancelled attempts legitimately own spans
    for (const FleetDeviceResult& dev : result.devices) {
      for (const trace::Span& span : *dev.trace) {
        EXPECT_NE(span.app_id, job.job_id)
            << "undispatched exhausted job owns a span";
      }
    }
  }
  check_chaos_conservation(result);
}

TEST(FleetChaosTest, HalfOpenProbeStolenByPeerDoesNotDoubleCount) {
  // Breaker/steal interaction: device 0 trips its health breaker (poisoned
  // launches), its queue rebalances, and while it is open an idle peer may
  // steal the very job a half-open probe would dispatch. Conservation and
  // owner uniqueness must survive that race.
  FleetConfig config = chaos_fleet(2);
  config.work_stealing = true;
  config.device_breaker_enabled = true;
  config.device_breaker.failure_threshold = 2;
  config.device_breaker.cooldown = 500 * kMicrosecond;
  fault::FaultPlan flaky = fault::FaultPlan::zero();
  flaky.launch_failure_rate = 0.9;
  flaky.poison_app = 0;  // plus one guaranteed quarantine
  config.device_fault_plans = {flaky, disabled_plan()};
  config.base.retry.max_attempts = 2;
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  EXPECT_GT(r.device_breaker_trips, 0u);
  check_chaos_conservation(result);
  // Each job is accounted by exactly one device: per-device arrived sums
  // match distinct owners.
  std::vector<std::uint64_t> owned(r.num_devices, 0);
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    if (result.owners[i] >= 0) {
      ++owned[static_cast<std::size_t>(result.owners[i])];
    }
  }
  for (std::size_t d = 0; d < r.num_devices; ++d) {
    EXPECT_EQ(owned[d], r.devices[d].report.arrived) << "device " << d;
  }
}

TEST(FleetChaosTest, ValidateRejectsBadFaultDomainConfigs) {
  FleetConfig config = chaos_fleet(2);
  config.device_fault_plans = {disabled_plan()};  // 1 plan, 2 devices
  EXPECT_THROW(config.validate(), hq::Error);

  config = chaos_fleet(2);
  config.failover_budget = -1;
  EXPECT_THROW(config.validate(), hq::Error);

  config = chaos_fleet(2);
  config.hedge_threshold = 0;
  EXPECT_THROW(config.validate(), hq::Error);

  config = chaos_fleet(2);
  config.hedge_min_samples = 0;
  EXPECT_THROW(config.validate(), hq::Error);
}

TEST(FleetChaosTest, GoodputDegradesWithEarlierCrash) {
  // The crashed-at-T property the demo plots: the earlier the crash, the
  // less goodput the fleet retains (monotone within tolerance).
  std::vector<double> goodput;
  for (const TimeNs at : {2 * kMillisecond, 5 * kMillisecond,
                          8 * kMillisecond}) {
    FleetConfig config = chaos_fleet(2);
    config.base.mean_interarrival = 60 * kMicrosecond;  // keep both busy
    config.device_fault_plans = {crash_plan(at), disabled_plan()};
    goodput.push_back(FleetService(config).run().report.goodput_per_sec);
  }
  EXPECT_LT(goodput[0], goodput[2]);
}

/// The hqserve failover configuration that once tripped the serve
/// accounting check: gaussian jobs at size 64 on four least-loaded devices
/// with stealing, hedging, a failover budget of 2 and 25% spot checks, under
/// a crash on device 0, a flapping device 1 and SDC on device 2.
FleetConfig failover_shed_back_config() {
  FleetConfig config;
  serve::ServiceConfig& base = config.base;
  base.window = 20 * kMillisecond;
  base.mean_interarrival = 60 * kMicrosecond;
  base.num_streams = 4;
  base.max_inflight = 3;
  base.queue_cap = 24;
  base.deadline = 4000 * kMicrosecond;
  base.seed = 1;
  base.collect_metrics = true;
  rodinia::AppParams params;
  params.size = 64;
  base.classes.push_back({rodinia::make_app("gaussian", params), 0});
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
    EXPECT_TRUE(plan.has_value()) << error;
    config.device_fault_plans.push_back(plan.value_or(fault::FaultPlan{}));
  }
  return config;
}

TEST(FleetChaosTest, FailoverVictimShedBackOntoItsDeviceKeepsAccounting) {
  // Job 95 dispatches on device 1, fails over to device 0 when device 1
  // flaps down, dispatches there, and fails back onto device 1's full queue
  // when device 0 crashes. It ends ShedQueueFull on device 1 while owning
  // the spans of its cancelled first attempt: legal, and accounted.
  FleetResult result = FleetService(failover_shed_back_config()).run();
  const serve::JobRecord& victim = result.jobs[95];
  EXPECT_EQ(victim.state, serve::JobState::ShedQueueFull);
  EXPECT_EQ(result.owners[95], 1);
  int dispatches = 0;
  int failovers = 0;
  for (const serve::JobEvent& e : result.lifecycle->events(95)) {
    if (e.kind == serve::JobEventKind::Dispatched) ++dispatches;
    if (e.kind == serve::JobEventKind::FailedOver) ++failovers;
  }
  EXPECT_EQ(dispatches, 2);
  EXPECT_EQ(failovers, 2);
  EXPECT_GE(result.devices[1].accounting.shed_after_dispatch, 1u);
  EXPECT_EQ(result.report.arrived, 332u);
  check_chaos_conservation(result);  // arrived == every terminal state
}

}  // namespace
}  // namespace hq::fleet
