// Integrity pipeline tests: silent-data-corruption injection (stuck-at,
// kernel-ramp), verification re-execution (spot-check / DMR), the
// majority-of-2-then-tiebreak vote, per-device SDC scores and blocklisting,
// and the interaction edge cases the fleet must survive — a tiebreak vote,
// a corrupting device winning a hedge race, a spot-check landing on a job
// that was failed over mid-flight, and blocklisting the last healthy
// device.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "serve/lifecycle.hpp"
#include "serve/report.hpp"
#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fleet {
namespace {

using fw::testing::SyntheticApp;

serve::ServiceConfig integrity_base() {
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

FleetConfig integrity_fleet(std::size_t devices) {
  FleetConfig config;
  config.base = integrity_base();
  config.resize_homogeneous(devices);
  config.placement = PlacementPolicy::LeastLoaded;
  return config;
}

fault::FaultPlan stuck_at_plan(TimeNs at, std::uint64_t seed = 7) {
  fault::FaultPlan plan = fault::FaultPlan::zero();
  plan.seed = seed;
  plan.sdc_stuck_at = at;
  return plan;
}

fault::FaultPlan clean_plan() { return fault::FaultPlan{}; }

/// Conservation under the integrity pipeline: every arrival is terminal,
/// per-device counters roll up to the fleet totals, and the exact
/// injected == detected + missed partition holds.
void check_integrity_conservation(const FleetResult& result) {
  const FleetReport& r = result.report;
  EXPECT_EQ(r.arrived, r.completed_ok + r.completed_late + r.shed_queue_full +
                           r.shed_breaker + r.shed_no_device +
                           r.timed_out_queued + r.quarantined +
                           r.shed_failover_exhausted);
  std::uint64_t injected = 0;
  std::uint64_t verifications = 0;
  std::uint64_t blocklisted = 0;
  for (const FleetDeviceStats& dev : r.devices) {
    injected += dev.sdc_injected;
    verifications += dev.verifications_run;
    if (dev.blocklisted) ++blocklisted;
    EXPECT_LE(dev.sdc_detected, dev.sdc_injected);
  }
  EXPECT_EQ(injected, r.sdc_injected);
  EXPECT_EQ(verifications, r.reexecutions);
  EXPECT_EQ(blocklisted, r.devices_blocklisted);
  EXPECT_EQ(r.sdc_injected, r.sdc_detected + r.sdc_missed);
  for (const serve::JobRecord& job : result.jobs) {
    EXPECT_NE(job.state, serve::JobState::Queued);
    EXPECT_NE(job.state, serve::JobState::Inflight);
  }
}

TEST(FleetIntegrityTest, StuckAtDeviceIsDetectedBlamedAndBlocklisted) {
  FleetConfig config = integrity_fleet(3);
  config.integrity = IntegrityPolicy::Dmr;
  config.device_fault_plans = {stuck_at_plan(kMillisecond), clean_plan(),
                               clean_plan()};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  EXPECT_EQ(r.integrity_policy, "dmr");
  // The liar produced corrupted results and DMR caught them.
  EXPECT_GT(r.sdc_injected, 0u);
  EXPECT_GT(r.sdc_detected, 0u);
  EXPECT_GT(r.devices[0].sdc_injected, 0u);
  EXPECT_GT(r.devices[0].sdc_blamed, 0u);
  // The vote blamed device 0 until its EWMA crossed the threshold: it is
  // the one and only blocklisted device, and the fleet kept serving.
  EXPECT_TRUE(r.devices[0].blocklisted);
  EXPECT_GE(r.devices[0].blocklisted_at, kMillisecond);
  EXPECT_FALSE(r.devices[1].blocklisted);
  EXPECT_FALSE(r.devices[2].blocklisted);
  EXPECT_EQ(r.devices_blocklisted, 1u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.reexecutions, 0u);
  check_integrity_conservation(result);
}

TEST(FleetIntegrityTest, TwoWayDmrTieIsBrokenByThirdExecution) {
  // A DMR mismatch between the primary and its verify re-execution cannot
  // be attributed two-ways: a third execution breaks the tie, and the
  // majority vote blames the stuck-at device.
  FleetConfig config = integrity_fleet(3);
  config.integrity = IntegrityPolicy::Dmr;
  config.base.collect_metrics = true;
  config.device_fault_plans = {stuck_at_plan(kMillisecond), clean_plan(),
                               clean_plan()};
  FleetResult result = FleetService(config).run();

  bool saw_tiebreak = false;
  bool blamed_liar = false;
  for (const serve::JobRecord& job : result.jobs) {
    int verifies = 0;
    for (const serve::JobEvent& e : result.lifecycle->events(job.job_id)) {
      if (e.kind == serve::JobEventKind::VerifyDispatched) ++verifies;
      if (e.kind == serve::JobEventKind::CorruptionDetected && e.device == 0) {
        blamed_liar = true;
      }
    }
    if (verifies >= 2) saw_tiebreak = true;
  }
  EXPECT_TRUE(saw_tiebreak) << "no job needed a tiebreak execution";
  EXPECT_TRUE(blamed_liar) << "no vote blamed the stuck-at device";
  check_integrity_conservation(result);
}

TEST(FleetIntegrityTest, CorruptingDeviceWinningHedgeRaceIsStillCaught) {
  // Device 0 straggles (long copy stalls), so hedges race its jobs; the
  // stuck-at device 1 is fast, becomes the hedge target, and wins races.
  // The winner's result is the one the integrity pipeline verifies, so the
  // corruption is caught even when it arrived through a hedge. The
  // blocklist threshold is parked at 1.0 (EWMA-unreachable) so the liar
  // keeps racing instead of being removed after a few votes.
  FleetConfig config = integrity_fleet(3);
  config.integrity = IntegrityPolicy::Dmr;
  config.sdc_blocklist_threshold = 1.0;
  config.base.collect_metrics = true;
  config.hedging = true;
  config.hedge_threshold = 1.5;
  config.hedge_min_samples = 2;
  fault::FaultPlan laggy = fault::FaultPlan::zero();
  laggy.copy_stall_rate = 0.8;
  laggy.copy_stall_ns = 2 * kMillisecond;
  config.device_fault_plans = {laggy, stuck_at_plan(kMillisecond),
                               clean_plan()};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  EXPECT_GT(r.hedges_launched, 0u);
  EXPECT_GT(r.sdc_injected, 0u);
  EXPECT_GT(r.sdc_detected, 0u);
  EXPECT_LE(r.hedge_wins, r.hedges_launched);
  EXPECT_EQ(r.devices_blocklisted, 0u);
  // At least one job was hedged onto the liar AND had its corruption
  // caught by the vote.
  bool liar_hedge_caught = false;
  for (const serve::JobRecord& job : result.jobs) {
    bool hedged_on_liar = false;
    bool corruption_detected = false;
    for (const serve::JobEvent& e : result.lifecycle->events(job.job_id)) {
      if (e.kind == serve::JobEventKind::Hedged && e.device == 1) {
        hedged_on_liar = true;
      }
      if (e.kind == serve::JobEventKind::CorruptionDetected) {
        corruption_detected = true;
      }
    }
    if (hedged_on_liar && corruption_detected) liar_hedge_caught = true;
  }
  EXPECT_TRUE(liar_hedge_caught)
      << "no hedge landed on the corrupting device and got caught";
  check_integrity_conservation(result);
}

TEST(FleetIntegrityTest, SpotCheckCoversJobFailedOverMidFlight) {
  // Device 0 crashes mid-window; its in-flight jobs fail over and complete
  // on a survivor. With a 100% spot-check rate the re-dispatched primary
  // is still verified — on a device that is neither the crashed one nor
  // the one that ran the primary.
  FleetConfig config = integrity_fleet(3);
  // Light enough load that the survivors have dispatch slack for the
  // verification right after absorbing the crashed device's work.
  config.base.mean_interarrival = 250 * kMicrosecond;
  config.integrity = IntegrityPolicy::SpotCheck;
  config.spotcheck_rate = 1.0;
  config.base.collect_metrics = true;
  fault::FaultPlan crash = fault::FaultPlan::zero();
  crash.crash_at = 3 * kMillisecond;
  config.device_fault_plans = {crash, clean_plan(), clean_plan()};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  EXPECT_EQ(r.integrity_policy, "spotcheck");
  EXPECT_GT(r.failed_over, 0u);
  EXPECT_GT(r.reexecutions, 0u);
  // No device corrupts here: spot-checks all agree, nothing is detected.
  EXPECT_EQ(r.sdc_injected, 0u);
  EXPECT_EQ(r.sdc_detected, 0u);
  EXPECT_EQ(r.sdc_missed, 0u);

  bool verified_after_failover = false;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const serve::JobRecord& job = result.jobs[i];
    bool failed_over = false;
    for (const serve::JobEvent& e : result.lifecycle->events(job.job_id)) {
      if (e.kind == serve::JobEventKind::FailedOver) failed_over = true;
      if (e.kind == serve::JobEventKind::VerifyDispatched && failed_over) {
        verified_after_failover = true;
        // The verify runs on a different device than the job's owner.
        EXPECT_NE(e.device, result.owners[i]) << "job " << job.job_id;
      }
    }
  }
  EXPECT_TRUE(verified_after_failover)
      << "no failed-over job was spot-checked";
  check_integrity_conservation(result);
}

TEST(FleetIntegrityTest, BlocklistOfLastHealthyDeviceDrainsCleanly) {
  // Both devices go stuck-at: every 2-way DMR mismatch blames both
  // participants (no third device exists to break the tie), both EWMA
  // scores cross the threshold, and the whole fleet is blocklisted. The
  // run must still terminate with every arrival in a terminal state.
  FleetConfig config = integrity_fleet(2);
  config.integrity = IntegrityPolicy::Dmr;
  config.device_fault_plans = {stuck_at_plan(kMillisecond, 7),
                               stuck_at_plan(kMillisecond, 11)};
  FleetResult result = FleetService(config).run();
  const FleetReport& r = result.report;

  EXPECT_EQ(r.devices_blocklisted, 2u);
  EXPECT_TRUE(r.devices[0].blocklisted);
  EXPECT_TRUE(r.devices[1].blocklisted);
  EXPECT_GT(r.completed, 0u);       // pre-onset work finished
  EXPECT_GT(r.shed_no_device, 0u);  // post-blocklist arrivals had no home
  check_integrity_conservation(result);
}

TEST(FleetIntegrityTest, KernelRampInjectsNothingBeforeOnset) {
  // The kernel-corruption ramp starts at sdc_at: an onset beyond the run
  // window injects nothing, while an early onset corrupts for real.
  FleetConfig late = integrity_fleet(2);
  late.integrity = IntegrityPolicy::Dmr;
  fault::FaultPlan ramp = fault::FaultPlan::zero();
  ramp.sdc_kernel_rate = 0.8;
  ramp.sdc_at = 20 * kMillisecond;  // past the 10ms window
  late.device_fault_plans = {ramp, clean_plan()};
  const FleetReport late_report = FleetService(late).run().report;
  EXPECT_EQ(late_report.sdc_injected, 0u);

  FleetConfig early = late;
  early.device_fault_plans[0].sdc_at = 2 * kMillisecond;
  const FleetReport early_report = FleetService(early).run().report;
  EXPECT_GT(early_report.sdc_injected, 0u);
}

TEST(FleetIntegrityTest, SdcRunsAreByteIdenticalAcrossRuns) {
  FleetConfig config = integrity_fleet(3);
  config.integrity = IntegrityPolicy::SpotCheck;
  config.spotcheck_rate = 0.5;
  fault::FaultPlan ramp = fault::FaultPlan::zero();
  ramp.sdc_kernel_rate = 0.6;
  ramp.sdc_at = 2 * kMillisecond;
  config.device_fault_plans = {stuck_at_plan(4 * kMillisecond), ramp,
                               clean_plan()};
  const std::string a = fleet_report_json(FleetService(config).run().report);
  const std::string b = fleet_report_json(FleetService(config).run().report);
  EXPECT_EQ(a, b);
}

TEST(FleetIntegrityTest, InertIntegrityKnobsAreByteIdenticalToBaseline) {
  // Trust + corruption-free plans means the pipeline never re-executes or
  // detects anything: the spot-check / blocklist knobs must not move a
  // single report byte apart from the config echo.
  FleetConfig baseline = integrity_fleet(2);
  FleetConfig tuned = integrity_fleet(2);
  tuned.integrity = IntegrityPolicy::Trust;
  tuned.spotcheck_rate = 0.9;
  tuned.sdc_blocklist_threshold = 0.25;
  tuned.sdc_score_alpha = 0.9;
  tuned.device_fault_plans = {clean_plan(), clean_plan()};
  const FleetReport a = FleetService(baseline).run().report;
  const FleetReport b = FleetService(tuned).run().report;
  EXPECT_EQ(fleet_report_json(a),
            fleet_report_json(with_config_echo_of(b, a)));
}

TEST(FleetIntegrityTest, ValidateRejectsBadIntegrityConfigs) {
  FleetConfig config = integrity_fleet(2);
  config.spotcheck_rate = 1.5;
  EXPECT_THROW(config.validate(), hq::Error);

  config = integrity_fleet(2);
  config.sdc_blocklist_threshold = 0;
  EXPECT_THROW(config.validate(), hq::Error);

  config = integrity_fleet(2);
  config.sdc_score_alpha = 0;
  EXPECT_THROW(config.validate(), hq::Error);

  config = integrity_fleet(2);
  config.sdc_score_alpha = 1.5;
  EXPECT_THROW(config.validate(), hq::Error);
}

}  // namespace
}  // namespace hq::fleet
