// Engine-path pins: one fleet scenario per engine path that the zero-chaos
// goldens and the SpotCheck chaos exports leave unpinned, each pinned by
// its FleetReport digest and each asserting that its path really fired.
//
// Paths: a DMR vote with a tiebreak and a blocklist, a device health-breaker
// trip that requeues queued jobs, a queue-full shed of a job that fails
// over onto a full queue, a queued job that expires while a thief steals
// it, and the two CLI scenarios (corruption and crash) whose stdout
// (`hqserve ... --report json`) is exactly fleet_report_json, so their pins
// are also the FNV-1a of that stdout.
//
// Update a pinned constant only for an intentional model change, never to
// silence an accidental diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "rodinia/registry.hpp"
#include "serve/lifecycle.hpp"
#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fleet {
namespace {

using fw::testing::SyntheticApp;

serve::ClassSpec synthetic_class(const char* name, int num_kernels,
                                 DurationNs block_duration) {
  SyntheticApp::Spec spec;
  spec.num_kernels = num_kernels;
  spec.block_duration = block_duration;
  return {fw::WorkloadItem{name,
                           [spec] { return std::make_unique<SyntheticApp>(spec); }},
          0};
}

/// The synthetic serving base the fleet unit tests share.
serve::ServiceConfig synthetic_base() {
  serve::ServiceConfig config;
  config.window = 10 * kMillisecond;
  config.mean_interarrival = 100 * kMicrosecond;
  config.num_streams = 2;
  config.max_inflight = 2;
  config.classes.push_back(synthetic_class("synthetic", 3, 30 * kMicrosecond));
  config.collect_metrics = false;
  return config;
}

std::vector<fault::FaultPlan> parse_plans(
    const std::vector<std::string>& lines) {
  std::vector<fault::FaultPlan> plans;
  for (const std::string& line : lines) {
    std::string error;
    const auto plan = fault::parse_fault_plan(line, &error);
    EXPECT_TRUE(plan.has_value()) << line << ": " << error;
    plans.push_back(plan.value_or(fault::FaultPlan{}));
  }
  return plans;
}

/// `hqserve --mix gaussian,needle --size 64 --window-ms 20 --streams 4
/// --max-inflight 2 --devices 3 --placement least-loaded` plus `mean_gap`.
FleetConfig cli_base(DurationNs mean_gap) {
  FleetConfig config;
  serve::ServiceConfig& base = config.base;
  base.window = 20 * kMillisecond;
  base.mean_interarrival = mean_gap;
  base.num_streams = 4;
  base.max_inflight = 2;
  base.collect_metrics = false;
  rodinia::AppParams params;
  params.size = 64;
  for (const char* app : {"gaussian", "needle"}) {
    base.classes.push_back({rodinia::make_app(app, params), 0});
  }
  config.resize_homogeneous(3);
  config.placement = PlacementPolicy::LeastLoaded;
  return config;
}

/// ... --mean-gap-us 150 --sdc-plan-file sdc.plan --integrity dmr
FleetConfig corruption_cli_config() {
  FleetConfig config = cli_base(150 * kMicrosecond);
  config.integrity = IntegrityPolicy::Dmr;
  config.device_fault_plans =
      parse_plans({"disabled", "sdc-stuck-at-us=3000,seed=7",
                   "sdc-kernel-rate=0.5,sdc-at-us=4000,seed=11"});
  return config;
}

/// ... --mean-gap-us 100 --deadline-us 4000 --failover-budget 2 --hedge
/// --hedge-threshold 1.5 --hedge-min-samples 3 --device-fault-plan-file
/// chaos.plan
FleetConfig crash_cli_config() {
  FleetConfig config = cli_base(100 * kMicrosecond);
  config.base.deadline = 4000 * kMicrosecond;
  config.failover_budget = 2;
  config.hedging = true;
  config.hedge_threshold = 1.5;
  config.hedge_min_samples = 3;
  config.device_fault_plans = parse_plans(
      {"crash-at-us=8000", "disabled",
       "flap-period-us=5000,flap-down-us=1000,flap-jitter=0.5,seed=3"});
  return config;
}

/// Three devices under DMR, device 0 stuck-at from 1 ms: a primary on the
/// liar and its clean verify mismatch, a third execution breaks the tie,
/// and the liar's blame score crosses the blocklist threshold.
FleetConfig dmr_tiebreak_config() {
  FleetConfig config;
  config.base = synthetic_base();
  config.base.collect_metrics = true;
  config.resize_homogeneous(3);
  config.placement = PlacementPolicy::LeastLoaded;
  config.integrity = IntegrityPolicy::Dmr;
  config.device_fault_plans =
      parse_plans({"sdc-stuck-at-us=1000,seed=7", "disabled", "disabled"});
  return config;
}

/// A hot allocation-fault plan quarantines slow jobs until the device
/// health breakers trip; a tripped device hands its queue to its peer.
FleetConfig breaker_requeue_config() {
  FleetConfig config;
  config.base = synthetic_base();
  config.base.mean_interarrival = 50 * kMicrosecond;
  config.base.classes = {synthetic_class("slow", 4, 100 * kMicrosecond)};
  config.base.queue_cap = 16;
  config.base.fault_plan.enabled = true;
  config.base.fault_plan.seed = 5;
  config.base.fault_plan.host_alloc_failure_rate = 0.85;
  config.resize_homogeneous(2);
  config.placement = PlacementPolicy::RoundRobin;
  config.device_breaker_enabled = true;
  config.device_breaker.failure_threshold = 2;
  config.device_breaker.cooldown = 500 * kMicrosecond;
  return config;
}

/// Four gaussian devices, one crashing and one flapping, at a load that
/// fills the survivors' queues: failed-over jobs meet full queues and are
/// shed there.
FleetConfig failover_shed_config() {
  FleetConfig config;
  serve::ServiceConfig& base = config.base;
  base.window = 20 * kMillisecond;
  base.mean_interarrival = 60 * kMicrosecond;
  base.num_streams = 4;
  base.max_inflight = 3;
  base.queue_cap = 24;
  base.deadline = 4000 * kMicrosecond;
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
  config.device_fault_plans = parse_plans(
      {"crash-at-us=12000,seed=3",
       "flap-period-us=4000,flap-down-us=1000,flap-jitter=0.5,seed=5",
       "sdc-kernel-rate=0.2,seed=7", "disabled"});
  return config;
}

/// Class affinity puts every arrival on device 0; its idle peers steal from
/// the back of its queue. After the window closes the deadline passes for
/// every job still queued there, and a thief expires what it pops.
FleetConfig steal_expiry_config() {
  FleetConfig config;
  config.base = synthetic_base();
  config.base.mean_interarrival = 20 * kMicrosecond;
  config.base.deadline = 400 * kMicrosecond;
  config.base.expire_queued = true;
  config.base.collect_metrics = true;
  config.resize_homogeneous(4);
  config.placement = PlacementPolicy::ClassAffinity;
  config.work_stealing = true;
  return config;
}

/// FNV-1a over the bytes of the report's JSON rendering (the stdout of
/// `hqserve ... --report json`).
std::uint64_t report_fnv(const FleetReport& report) {
  Fnv1a64 h;
  for (const char c : fleet_report_json(report)) {
    h.mix_byte(static_cast<std::uint8_t>(c));
  }
  return h.value();
}

/// True when some job's lifecycle chain has `kind` right after `before`.
bool chain_has(const FleetResult& result, serve::JobEventKind before,
               serve::JobEventKind kind) {
  for (const serve::JobRecord& job : result.jobs) {
    const auto events = result.lifecycle->events(job.job_id);
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (events[i - 1].kind == before && events[i].kind == kind) return true;
    }
  }
  return false;
}

/// Every arrival ends in exactly one terminal state.
void expect_conserved(const FleetReport& r) {
  EXPECT_EQ(r.arrived, r.completed_ok + r.completed_late + r.shed_queue_full +
                           r.shed_breaker + r.shed_no_device +
                           r.timed_out_queued + r.quarantined +
                           r.shed_failover_exhausted);
  EXPECT_EQ(r.sdc_injected, r.sdc_detected + r.sdc_missed);
}

struct PathRow {
  const char* name;
  std::function<FleetConfig()> config;
  /// FNV-1a of fleet_report_json.
  std::uint64_t fnv;
  /// Asserts that the row's engine path fired in `result`.
  std::function<void(const FleetResult&)> fired;
};

const std::vector<PathRow>& path_rows() {
  static const std::vector<PathRow> kRows = {
      {"corruption_cli", corruption_cli_config, 0x0c6e37635aa370f8ULL,
       [](const FleetResult& result) {
         const FleetReport& r = result.report;
         EXPECT_EQ(r.integrity_policy, "dmr");
         EXPECT_GT(r.sdc_detected, 0u);
         EXPECT_GT(r.reexecutions, 0u);
         EXPECT_GE(r.devices_blocklisted, 1u);
       }},
      {"crash_cli", crash_cli_config, 0x71091b0aa134fe35ULL,
       [](const FleetResult& result) {
         EXPECT_GT(result.report.failed_over, 0u);
       }},
      {"dmr_tiebreak_blocklist", dmr_tiebreak_config, 0x96db0d99821b44f4ULL,
       [](const FleetResult& result) {
         EXPECT_TRUE(chain_has(result, serve::JobEventKind::VerifyDispatched,
                               serve::JobEventKind::VerifyDispatched))
             << "no job needed a tiebreak execution";
         EXPECT_GT(result.report.devices_blocklisted, 0u);
       }},
      {"breaker_requeue", breaker_requeue_config, 0xdd576ef5ca3d655bULL,
       [](const FleetResult& result) {
         EXPECT_GT(result.report.device_breaker_trips, 0u);
         EXPECT_GT(result.report.requeued, 0u);
       }},
      {"failover_queue_full_shed", failover_shed_config, 0xcdeaa1a8484fef09ULL,
       [](const FleetResult& result) {
         EXPECT_GT(result.report.failed_over, 0u);
         EXPECT_TRUE(chain_has(result, serve::JobEventKind::FailedOver,
                               serve::JobEventKind::ShedQueueFull))
             << "no failed-over job was shed by a full queue";
       }},
      {"steal_expiry", steal_expiry_config, 0xad465f708edcf2e5ULL,
       [](const FleetResult& result) {
         EXPECT_GT(result.report.stolen, 0u);
         EXPECT_GT(result.report.timed_out_queued, 0u);
       }},
  };
  return kRows;
}

TEST(FleetEnginePathTest, EveryPathFiresAndIsPinned) {
  for (const PathRow& row : path_rows()) {
    SCOPED_TRACE(row.name);
    const FleetResult result = FleetService(row.config()).run();
    row.fired(result);
    expect_conserved(result.report);
    const std::uint64_t fnv = report_fnv(result.report);
    EXPECT_EQ(fnv, row.fnv) << std::hex << "report FNV moved: 0x" << fnv;
  }
}

TEST(FleetEnginePathTest, CliScenariosAreByteIdenticalAcrossRuns) {
  for (const auto& config : {corruption_cli_config, crash_cli_config}) {
    EXPECT_EQ(fleet_report_json(FleetService(config()).run().report),
              fleet_report_json(FleetService(config()).run().report));
  }
}

}  // namespace
}  // namespace hq::fleet
