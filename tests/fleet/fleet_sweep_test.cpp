// Tests for the fleet sweep layer: grid expansion order, grid-key
// sensitivity to every result-affecting config field, journal round-trip
// and torn-line tolerance, resume correctness (refuses foreign grids,
// replays finished points, equals a fresh run), and byte-identical
// combined digests across --jobs counts.
#include "fleet/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fault/fault.hpp"
#include "rodinia/registry.hpp"
#include "tests/hyperq/synthetic_app.hpp"

namespace hq::fleet {
namespace {

using fw::testing::SyntheticApp;

serve::ServiceConfig small_base() {
  serve::ServiceConfig config;
  config.window = 4 * kMillisecond;
  config.mean_interarrival = 100 * kMicrosecond;
  config.num_streams = 2;
  config.max_inflight = 2;
  SyntheticApp::Spec spec;
  spec.num_kernels = 2;
  spec.block_duration = 30 * kMicrosecond;
  config.classes.push_back(
      {fw::WorkloadItem{"synthetic",
                        [spec] { return std::make_unique<SyntheticApp>(spec); }},
       0});
  config.collect_metrics = false;
  return config;
}

FleetSweepGrid small_grid() {
  FleetSweepGrid grid;
  grid.base.base = small_base();
  grid.fleet_sizes = {1, 2};
  grid.placements = {PlacementPolicy::RoundRobin,
                     PlacementPolicy::LeastLoaded};
  return grid;
}

fw::WorkloadItem app(const std::string& name, int size,
                     std::optional<int> iterations = std::nullopt) {
  rodinia::AppParams params;
  params.size = size;
  params.iterations = iterations;
  return rodinia::make_app(name, params);
}

std::vector<FleetSweepOutcome> run(const FleetSweepGrid& grid) {
  return exec::run_grid<FleetSweep>(grid, {});
}

std::uint64_t key_of(const FleetSweepGrid& grid) {
  const auto points = FleetSweep::expand(grid);
  return FleetSweep::grid_key(grid, points);
}

/// RAII scratch file path for journal tests.
struct ScratchFile {
  std::string path;
  explicit ScratchFile(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
};

TEST(FleetSweepTest, ExpandsRowMajorSizesOutermost) {
  const auto points = FleetSweep::expand(small_grid());
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].label(), "n=1 placement=round-robin");
  EXPECT_EQ(points[1].label(), "n=1 placement=least-loaded");
  EXPECT_EQ(points[2].label(), "n=2 placement=round-robin");
  EXPECT_EQ(points[3].label(), "n=2 placement=least-loaded");
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
}

TEST(FleetSweepTest, ApplyPointResizesCyclicallyFromResolvedSpecs) {
  FleetSweepGrid grid = small_grid();
  grid.base.devices = {gpu::DeviceSpec::tesla_k20(),
                       gpu::DeviceSpec::single_copy_engine()};
  grid.fleet_sizes = {3};
  grid.placements = {PlacementPolicy::CopyAware};
  const auto points = FleetSweep::expand(grid);
  const FleetConfig config = apply_fleet_point(grid, points[0]);
  ASSERT_EQ(config.devices.size(), 3u);
  EXPECT_EQ(config.devices[0].name, gpu::DeviceSpec::tesla_k20().name);
  EXPECT_EQ(config.devices[1].name,
            gpu::DeviceSpec::single_copy_engine().name);
  EXPECT_EQ(config.devices[2].name, gpu::DeviceSpec::tesla_k20().name);
  EXPECT_EQ(config.placement, PlacementPolicy::CopyAware);
}

TEST(FleetSweepTest, GridKeyFingerprintsEveryResultAffectingField) {
  const FleetSweepGrid base = small_grid();
  const std::uint64_t base_key = key_of(base);

  std::vector<FleetSweepGrid> variants;
  const auto variant = [&]() -> FleetSweepGrid& {
    variants.push_back(base);
    return variants.back();
  };
  variant().fleet_sizes = {1, 4};
  variant().placements = {PlacementPolicy::RoundRobin};
  variant().base.devices = {gpu::DeviceSpec::single_copy_engine()};
  variant().base.copy_penalty = 0.5;
  variant().base.work_stealing = true;
  variant().base.device_breaker_enabled = true;
  variant().base.device_breaker.failure_threshold = 9;
  variant().base.device_breaker.cooldown = kMillisecond;
  variant().base.base.seed = 999;
  variant().base.base.window = 5 * kMillisecond;
  variant().base.base.mean_interarrival = 10 * kMicrosecond;
  variant().base.base.num_streams = 7;
  variant().base.base.max_inflight = 9;
  variant().base.base.memory_sync = !base.base.base.memory_sync;
  variant().base.base.queue_cap = 3;
  variant().base.base.deadline = kMillisecond;
  variant().base.base.expire_queued = !base.base.base.expire_queued;
  variant().base.base.classes.push_back(base.base.base.classes[0]);
  variant().base.base.classes[0].priority = 5;
  variant().base.base.controller.enabled = true;
  variant().base.base.breaker_enabled = !base.base.base.breaker_enabled;
  variant().base.base.fault_plan.enabled = true;
  variant().base.base.retry.max_attempts = 7;
  variant().base.base.arrivals.push_back({kMillisecond, 0});
  // Fault-domain knobs: a chaos-config edit must never splice a resumed
  // journal's cached outcomes into the new config's report.
  variant().base.device_fault_plans = {fault::FaultPlan::zero(),
                                       fault::FaultPlan::zero()};
  {
    FleetSweepGrid& g = variant();
    fault::FaultPlan crash = fault::FaultPlan::zero();
    crash.crash_at = 3 * kMillisecond;
    g.base.device_fault_plans = {crash, fault::FaultPlan::zero()};
  }
  variant().base.failover_budget = 0;
  variant().base.hedging = true;
  variant().base.hedge_threshold = 3.5;
  variant().base.hedge_min_samples = 9;
  // Integrity knobs: a policy or SDC-plan edit must also invalidate cached
  // journal outcomes.
  variant().base.integrity = IntegrityPolicy::Dmr;
  variant().base.spotcheck_rate = 0.77;
  variant().base.sdc_blocklist_threshold = 0.33;
  variant().base.sdc_score_alpha = 0.9;
  {
    FleetSweepGrid& g = variant();
    fault::FaultPlan sdc = fault::FaultPlan::zero();
    sdc.sdc_stuck_at = 3 * kMillisecond;
    g.base.device_fault_plans = {sdc, fault::FaultPlan::zero()};
  }
  {
    FleetSweepGrid& g = variant();
    fault::FaultPlan sdc = fault::FaultPlan::zero();
    sdc.sdc_copy_rate = 0.4;
    g.base.device_fault_plans = {sdc, fault::FaultPlan::zero()};
  }
  // Application params live inside the class's factory closure, so only
  // the item's params record can tell two sizes (or iteration counts) of
  // the same application apart.
  variant().base.base.classes[0].item = app("srad", 64);
  variant().base.base.classes[0].item = app("srad", 128);
  variant().base.base.classes[0].item = app("srad", 64, 3);

  std::set<std::uint64_t> keys = {base_key};
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const std::uint64_t key = key_of(variants[i]);
    EXPECT_NE(key, base_key) << "variant " << i << " did not move the key";
    EXPECT_TRUE(keys.insert(key).second)
        << "variant " << i << " collided with an earlier key";
  }
}

TEST(FleetSweepTest, JournalOutcomeLineRoundTrips) {
  const FleetSweepGrid grid = small_grid();
  const auto points = FleetSweep::expand(grid);
  const FleetSweepOutcome out = FleetSweep::run_point(grid, points[2]);
  const std::string line = exec::journal_record_line<FleetSweep>(out);
  const auto parsed = exec::parse_journal_outcome<FleetSweep>(line, points);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->point.index, out.point.index);
  EXPECT_EQ(parsed->point.fleet_size, out.point.fleet_size);
  EXPECT_EQ(parsed->point.placement, out.point.placement);
  EXPECT_EQ(parsed->arrived, out.arrived);
  EXPECT_EQ(parsed->completed_ok, out.completed_ok);
  EXPECT_EQ(parsed->completed, out.completed);
  EXPECT_EQ(parsed->shed, out.shed);
  EXPECT_EQ(parsed->requeued, out.requeued);
  EXPECT_EQ(parsed->stolen, out.stolen);
  EXPECT_EQ(parsed->goodput_per_sec, out.goodput_per_sec);
  EXPECT_EQ(parsed->total_time, out.total_time);
  EXPECT_EQ(parsed->report_digest, out.report_digest);
}

TEST(FleetSweepTest, LoadJournalSkipsTornAndForeignLines) {
  const FleetSweepGrid grid = small_grid();
  const auto points = FleetSweep::expand(grid);
  const std::uint64_t key = FleetSweep::grid_key(grid, points);
  const FleetSweepOutcome out = FleetSweep::run_point(grid, points[1]);

  std::stringstream journal;
  journal << exec::journal_header_line(FleetSweep::kJournalMagic, key,
                                       points.size())
          << "\n";
  journal << "garbage line\n";
  const std::string good = exec::journal_record_line<FleetSweep>(out);
  journal << good.substr(0, good.size() / 2) << "\n";  // torn mid-write
  journal << "point index=99 arrived=1 end\n";         // out-of-range point
  journal << good << "\n";

  std::vector<std::optional<FleetSweepOutcome>> cached(points.size());
  bool header_read = false;
  const std::size_t loaded = exec::load_journal<FleetSweep>(
      journal, key, points, &cached, &header_read);
  EXPECT_TRUE(header_read);
  EXPECT_EQ(loaded, 1u);
  ASSERT_TRUE(cached[1].has_value());
  EXPECT_EQ(cached[1]->report_digest, out.report_digest);
  EXPECT_FALSE(cached[0].has_value());
}

TEST(FleetSweepTest, LoadJournalRejectsForeignGridKey) {
  const FleetSweepGrid grid = small_grid();
  const auto points = FleetSweep::expand(grid);
  const std::uint64_t key = FleetSweep::grid_key(grid, points);
  std::stringstream journal;
  journal << exec::journal_header_line(FleetSweep::kJournalMagic, key ^ 1,
                                       points.size())
          << "\n";
  std::vector<std::optional<FleetSweepOutcome>> cached(points.size());
  EXPECT_THROW(exec::load_journal<FleetSweep>(journal, key, points, &cached),
               hq::Error);
}

TEST(FleetSweepTest, ResumeEqualsFreshRunAndRefusesForeignGrid) {
  const FleetSweepGrid grid = small_grid();
  const auto fresh = run(grid);

  // Journal a full run, then resume from it: every point replays from the
  // journal and the outcomes match the fresh run exactly.
  ScratchFile scratch("fleet_sweep_journal_test.log");
  exec::GridOptions journaled;
  journaled.journal_path = scratch.path;
  const auto first = exec::run_grid<FleetSweep>(grid, journaled);
  exec::GridOptions resumed = journaled;
  resumed.resume = true;
  const auto second = exec::run_grid<FleetSweep>(grid, resumed);
  ASSERT_EQ(first.size(), fresh.size());
  ASSERT_EQ(second.size(), fresh.size());
  EXPECT_EQ(fleet_combined_digest(first), fleet_combined_digest(fresh));
  EXPECT_EQ(fleet_combined_digest(second), fleet_combined_digest(fresh));

  // A different grid must refuse to resume from this journal.
  FleetSweepGrid other = grid;
  other.base.base.seed = 4242;
  EXPECT_THROW(exec::run_grid<FleetSweep>(other, resumed), hq::Error);
}

TEST(FleetSweepTest, ResumeRefusesJournalOfAnotherAppSize) {
  // The same command line at another --size must not replay the journal:
  // the class keeps its type name, but its workload is different.
  const auto grid_at = [](int size) {
    FleetSweepGrid grid = small_grid();
    grid.base.base.classes[0].item = app("gaussian", size);
    grid.fleet_sizes = {1};
    grid.placements = {PlacementPolicy::RoundRobin};
    return grid;
  };
  ScratchFile scratch("fleet_sweep_size_journal_test.log");
  exec::GridOptions options;
  options.journal_path = scratch.path;
  (void)exec::run_grid<FleetSweep>(grid_at(32), options);
  options.resume = true;
  try {
    (void)exec::run_grid<FleetSweep>(grid_at(64), options);
    FAIL() << "expected hq::Error";
  } catch (const hq::Error& e) {
    EXPECT_NE(std::string(e.what()).find("grid mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(FleetSweepTest, ResumeRefusesJournalOfAnotherReportSchema) {
  // A journal written under fleet report schema v1: its records carry v1
  // report digests, so a build rendering another schema must not splice
  // them into its sweep, even though the grid itself is unchanged.
  FleetSweepGrid grid = small_grid();
  grid.placements = {PlacementPolicy::RoundRobin};
  ScratchFile scratch("fleet_sweep_schema_journal_test.log");
  {
    std::ofstream out(scratch.path);
    out << "hq-fleet-journal version=v1 grid=452489d0d04f3cb1 points=2 end\n"
        << "point index=0 arrived=40 ok=40 done=40 shed=0 requeued=0 "
           "stolen=0 goodput=9516.701454175774 tput=9516.701454175774 "
           "miss=0 energy=0.2719586207954686 total=4203137 "
           "digest=c35782297e663991 end\n";
  }
  exec::GridOptions options;
  options.journal_path = scratch.path;
  options.resume = true;
  try {
    (void)exec::run_grid<FleetSweep>(grid, options);
    FAIL() << "expected hq::Error";
  } catch (const hq::Error& e) {
    EXPECT_NE(std::string(e.what()).find("grid mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(FleetSweepTest, ResumeRefusesJournalOfAnOlderGridKey) {
  // A journal of this grid written by a build whose grid key mixed a
  // hand-kept field list: the key now hashes the canonical config text, so
  // the header must refuse. The record bytes did not change: this build
  // writes the identical line for the same point.
  FleetSweepGrid grid = small_grid();
  grid.placements = {PlacementPolicy::RoundRobin};
  const auto points = FleetSweep::expand(grid);
  const std::string old_record =
      "point index=1 arrived=40 ok=40 done=40 sheds=0 requeued=0 stolen=0 "
      "goodput=9774.29443644717 tput=9774.29443644717 miss=0 "
      "energy=0.38855719379546827 total=4092367 digest=d4688b9441ba55ec end";
  EXPECT_EQ(exec::journal_record_line<FleetSweep>(
                FleetSweep::run_point(grid, points[1])),
            old_record);
  ScratchFile scratch("fleet_sweep_older_journal_test.log");
  {
    std::ofstream out(scratch.path);
    out << "hq-fleet-journal version=v1 grid=98f9b1488832d0e3 points=2 end\n"
        << old_record << "\n";
  }
  exec::GridOptions options;
  options.journal_path = scratch.path;
  options.resume = true;
  try {
    (void)exec::run_grid<FleetSweep>(grid, options);
    FAIL() << "expected hq::Error";
  } catch (const hq::Error& e) {
    EXPECT_NE(std::string(e.what()).find("grid mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(FleetSweepTest, ShedCountsEveryShedStateOnACrashPlanGrid) {
  // Every device crashes mid-window: jobs in flight at the crash have no
  // survivor to fail over to, and later arrivals find no device, so the
  // shed column must count both fleet-owned states.
  FleetSweepGrid grid = small_grid();
  grid.placements = {PlacementPolicy::RoundRobin};
  grid.base.base.fault_plan = fault::FaultPlan::zero();
  grid.base.base.fault_plan.crash_at = 2 * kMillisecond;
  const auto points = FleetSweep::expand(grid);
  const auto outcomes = run(grid);
  ASSERT_EQ(outcomes.size(), points.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const FleetSweepOutcome& o = outcomes[i];
    // No deadline and a crash-only plan: nothing times out or is
    // quarantined, so every arrival either completed or was shed.
    EXPECT_EQ(o.arrived, o.completed + o.shed) << o.point.label();
    const FleetReport r =
        FleetService(apply_fleet_point(grid, points[i])).run().report;
    EXPECT_GT(r.shed_failover_exhausted, 0u) << o.point.label();
    EXPECT_EQ(o.shed, r.shed_queue_full + r.shed_breaker + r.shed_no_device +
                          r.shed_failover_exhausted)
        << o.point.label();
  }
}

TEST(FleetSweepTest, CombinedDigestIsByteIdenticalAcrossJobCounts) {
  const FleetSweepGrid grid = small_grid();
  const auto serial = run(grid);
  for (const int jobs : {2, 8}) {
    exec::GridOptions options;
    options.jobs = jobs;
    const auto threaded = exec::run_grid<FleetSweep>(grid, options);
    ASSERT_EQ(threaded.size(), serial.size());
    EXPECT_EQ(fleet_combined_digest(threaded),
              fleet_combined_digest(serial))
        << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(threaded[i].report_digest, serial[i].report_digest) << i;
    }
  }
}

TEST(FleetSweepTest, RenderedReportListsEveryPointAndCombinedDigest) {
  const FleetSweepGrid grid = small_grid();
  const auto outcomes = run(grid);
  const std::string report = render_fleet_sweep_report(outcomes);
  EXPECT_NE(report.find("round-robin"), std::string::npos);
  EXPECT_NE(report.find("least-loaded"), std::string::npos);
  EXPECT_NE(report.find("combined digest: 0x"), std::string::npos);
}

}  // namespace
}  // namespace hq::fleet
