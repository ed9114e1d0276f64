// Deterministic fault injection + recovery (src/fault) end to end: plan
// parsing, the zero-perturbation contract, seeded determinism, copy-engine
// degradation, retry/backoff, quarantine, watchdog detection, and the
// crash-safe sweep journal. Every harness run here keeps check_invariants
// on, so the fault-accounting oracle (invariant 8: injector stats ==
// observed on_fault_injected events, per kind) is re-proven implicitly by
// every test that completes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/sweep.hpp"
#include "fault/fault.hpp"
#include "hyperq/harness.hpp"
#include "hyperq/schedule.hpp"
#include "rodinia/registry.hpp"
#include "trace/trace.hpp"

namespace hq {
namespace {

// ------------------------------------------------------------ plan parsing

TEST(FaultPlanTest, ZeroKeywordYieldsEnabledZeroRatePlan) {
  const auto plan = fault::parse_fault_plan("zero");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->enabled);
  EXPECT_FALSE(plan->any_faults());
  EXPECT_EQ(fault_plan_to_string(*plan),
            fault_plan_to_string(fault::FaultPlan::zero()));
}

TEST(FaultPlanTest, ToStringParseRoundTrips) {
  const std::string spec =
      "seed=99,copy-stall-rate=0.25,copy-stall-us=50,copy-slow-rate=0.5,"
      "copy-slow-factor=1.5,launch-fail-rate=0.125,alloc-fail-rate=0.0625,"
      "poison-app=3,offline-smx=2,throttle-period-us=2000,"
      "throttle-duty-us=200,throttle-factor=1.25";
  std::string error;
  const auto plan = fault::parse_fault_plan(spec, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->seed, 99u);
  EXPECT_EQ(plan->copy_stall_ns, 50 * kMicrosecond);
  EXPECT_EQ(plan->poison_app, 3);
  EXPECT_EQ(plan->offline_smx, 2);
  EXPECT_TRUE(plan->any_faults());
  const auto reparsed = fault::parse_fault_plan(fault_plan_to_string(*plan));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(fault_plan_to_string(*reparsed), fault_plan_to_string(*plan));
}

TEST(FaultPlanTest, ToStringRoundTripsHighPrecisionDoubles) {
  fault::FaultPlan plan = fault::FaultPlan::zero();
  plan.copy_stall_rate = 0.1234567890123456;
  plan.copy_slowdown_factor = 1.0000001;
  plan.launch_failure_rate = 1.0 / 3.0;
  const auto reparsed = fault::parse_fault_plan(fault_plan_to_string(plan));
  ASSERT_TRUE(reparsed.has_value()) << fault_plan_to_string(plan);
  EXPECT_EQ(reparsed->copy_stall_rate, plan.copy_stall_rate);
  EXPECT_EQ(reparsed->copy_slowdown_factor, plan.copy_slowdown_factor);
  EXPECT_EQ(reparsed->launch_failure_rate, plan.launch_failure_rate);

  // Plans differing past the 6th significant digit must not serialize
  // identically (they would collide in the sweep-journal grid key).
  fault::FaultPlan close = plan;
  close.copy_stall_rate = 0.1234567890123457;
  EXPECT_NE(fault_plan_to_string(close), fault_plan_to_string(plan));
}

TEST(FaultPlanTest, MalformedSpecsReturnNulloptWithError) {
  std::string error;
  EXPECT_FALSE(fault::parse_fault_plan("", &error).has_value());
  EXPECT_NE(error.find("empty spec"), std::string::npos);
  EXPECT_FALSE(fault::parse_fault_plan("no-such-key=1", &error).has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(
      fault::parse_fault_plan("copy-stall-rate=1.5", &error).has_value());
  EXPECT_NE(error.find("rate in [0,1]"), std::string::npos);
  EXPECT_FALSE(
      fault::parse_fault_plan("copy-slow-factor=0.5", &error).has_value());
  EXPECT_NE(error.find("factor >= 1"), std::string::npos);
  EXPECT_FALSE(fault::parse_fault_plan("copy-stall-rate", &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);
  EXPECT_FALSE(fault::parse_fault_plan("poison-app=-2", &error).has_value());
}

// --------------------------------------------------------- harness helpers

fw::HarnessConfig small_config(int ns, bool functional = false) {
  fw::HarnessConfig config;
  config.num_streams = ns;
  config.functional = functional;
  config.sensor.noise_stddev = 0.0;
  config.sensor.quantization = 0.0;
  return config;
}

/// 4 apps (2 gaussian + 2 nn) over `config.num_streams` streams, tiny
/// inputs. Deterministic for a fixed config.
fw::HarnessResult run_small(const fw::HarnessConfig& config, int na = 4) {
  Rng rng(7);
  const int counts[] = {na - na / 2, na / 2};
  const auto schedule = fw::make_schedule(fw::Order::NaiveFifo, counts, &rng);
  rodinia::AppParams params;
  params.size = 64;
  params.iterations = 2;
  const auto workload =
      rodinia::build_workload(schedule, {"gaussian", "nn"}, {params, params});
  fw::Harness harness(config);
  return harness.run(workload);
}

// ------------------------------------------------------- zero perturbation

TEST(FaultInjectorTest, ZeroRatePlanIsZeroPerturbation) {
  const auto baseline = run_small(small_config(4));
  auto config = small_config(4);
  config.fault_plan = fault::FaultPlan::zero();
  const auto with_injector = run_small(config);
  EXPECT_EQ(trace::digest(*with_injector.trace), trace::digest(*baseline.trace));
  EXPECT_EQ(with_injector.makespan, baseline.makespan);
  EXPECT_DOUBLE_EQ(with_injector.energy_exact, baseline.energy_exact);
  EXPECT_EQ(with_injector.degraded.stats.total(), 0u);
  EXPECT_FALSE(with_injector.degraded.degraded());
}

// ------------------------------------------------- copy-engine degradation

TEST(FaultInjectorTest, SeededCopyFaultsAreDeterministicAndSlowTheRun) {
  const auto baseline = run_small(small_config(4));
  auto config = small_config(4);
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 5;
  config.fault_plan.copy_stall_rate = 0.5;
  config.fault_plan.copy_stall_ns = 50 * kMicrosecond;
  config.fault_plan.copy_slowdown_rate = 0.5;
  config.fault_plan.copy_slowdown_factor = 1.5;
  const auto a = run_small(config);
  const auto b = run_small(config);

  // Byte-identical replay: same plan + seed, same everything.
  EXPECT_EQ(trace::digest(*a.trace), trace::digest(*b.trace));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.degraded.stats.copy_stalls, b.degraded.stats.copy_stalls);
  EXPECT_EQ(a.degraded.stats.copy_slowdowns, b.degraded.stats.copy_slowdowns);

  // The faults actually fired and actually cost time.
  EXPECT_GT(a.degraded.stats.copy_stalls, 0u);
  EXPECT_GT(a.degraded.stats.copy_slowdowns, 0u);
  EXPECT_GT(a.degraded.stats.copy_stall_total_ns, 0u);
  EXPECT_GT(a.makespan, baseline.makespan);
  EXPECT_NE(trace::digest(*a.trace), trace::digest(*baseline.trace));
  EXPECT_FALSE(a.degraded.degraded());
}

TEST(FaultInjectorTest, ThrottleWindowsStretchCopies) {
  const auto baseline = run_small(small_config(4));
  auto config = small_config(4);
  config.fault_plan.enabled = true;
  config.fault_plan.throttle_period = kMillisecond;
  config.fault_plan.throttle_duration = 500 * kMicrosecond;
  config.fault_plan.throttle_factor = 2.0;
  const auto result = run_small(config);
  EXPECT_GT(result.degraded.stats.throttled_copies, 0u);
  EXPECT_GE(result.makespan, baseline.makespan);
  EXPECT_NE(trace::digest(*result.trace), trace::digest(*baseline.trace));
  EXPECT_FALSE(result.degraded.degraded());
}

// ------------------------------------------------------------ launch faults

TEST(FaultInjectorTest, TransientLaunchFailuresRetryAndPreserveOutputs) {
  // Rate 1 makes every launch fail max_retries times before the capped
  // final attempt succeeds: maximum retry pressure, zero aborts. Functional
  // outputs must be unaffected — retries change timing, never results.
  const auto baseline = run_small(small_config(4, /*functional=*/true));
  auto config = small_config(4, /*functional=*/true);
  config.fault_plan.enabled = true;
  config.fault_plan.launch_failure_rate = 1.0;
  const auto faulted = run_small(config);

  EXPECT_GT(faulted.degraded.stats.launch_failures, 0u);
  EXPECT_EQ(faulted.degraded.stats.launch_aborts, 0u);
  EXPECT_FALSE(faulted.degraded.degraded());
  EXPECT_TRUE(faulted.all_verified);
  EXPECT_GE(faulted.makespan, baseline.makespan);
  ASSERT_EQ(faulted.apps.size(), baseline.apps.size());
  for (std::size_t i = 0; i < faulted.apps.size(); ++i) {
    EXPECT_EQ(faulted.apps[i].output_digest, baseline.apps[i].output_digest)
        << "app " << i;
  }
}

TEST(FaultInjectorTest, PoisonedAppIsQuarantinedAndRestCompletes) {
  auto config = small_config(4);
  config.fault_plan.enabled = true;
  config.fault_plan.poison_app = 1;
  const auto result = run_small(config);

  ASSERT_EQ(result.degraded.quarantined.size(), 1u);
  EXPECT_EQ(result.degraded.quarantined[0].app_id, 1);
  EXPECT_EQ(result.degraded.quarantined[0].reason, "launch-aborted");
  EXPECT_GT(result.degraded.stats.launch_aborts, 0u);

  // NA-1 healthy apps still ran to completion.
  ASSERT_EQ(result.apps.size(), 4u);
  int completed = 0;
  for (const fw::AppMetrics& m : result.apps) {
    if (m.app_id == 1) {
      EXPECT_TRUE(m.quarantined);
      continue;
    }
    EXPECT_FALSE(m.quarantined) << "app " << m.app_id;
    EXPECT_GT(m.end_time, 0u) << "app " << m.app_id;
    ++completed;
  }
  EXPECT_EQ(completed, 3);
  EXPECT_GT(result.makespan, 0u);
}

// -------------------------------------------------------- allocation faults

TEST(FaultInjectorTest, AllocRetriesAbsorbModerateFailureRates) {
  // At rate 0.5 a buffer only sticks as failed after 8 consecutive bad
  // draws (p = 2^-8 per buffer): the bounded retry loop absorbs the faults
  // and nobody is quarantined, but the injector accounted every failure.
  auto config = small_config(4);
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 11;
  config.fault_plan.host_alloc_failure_rate = 0.5;
  const auto result = run_small(config);
  EXPECT_GT(result.degraded.stats.host_alloc_failures, 0u);
  EXPECT_FALSE(result.degraded.degraded());
  EXPECT_GT(result.makespan, 0u);
}

TEST(FaultInjectorTest, CertainAllocFailureQuarantinesEveryApp) {
  auto config = small_config(4);
  config.fault_plan.enabled = true;
  config.fault_plan.host_alloc_failure_rate = 1.0;
  const auto result = run_small(config);
  ASSERT_EQ(result.degraded.quarantined.size(), 4u);
  for (const fault::QuarantinedApp& q : result.degraded.quarantined) {
    EXPECT_EQ(q.reason.rfind("allocation-failed:", 0), 0u)
        << "app " << q.app_id << " reason: " << q.reason;
  }
  EXPECT_GT(result.degraded.stats.host_alloc_failures, 0u);
}

// ------------------------------------------------------- compute degradation

TEST(FaultInjectorTest, OfflineSmxDegradesSpecAndNeverBelowOne) {
  fault::FaultPlan plan = fault::FaultPlan::zero();
  plan.offline_smx = 4;
  const auto spec = gpu::DeviceSpec::tesla_k20();
  EXPECT_EQ(fault::FaultInjector(plan).degraded(spec).num_smx,
            spec.num_smx - 4);
  plan.offline_smx = 1000;
  EXPECT_EQ(fault::FaultInjector(plan).degraded(spec).num_smx, 1);

  const auto baseline = run_small(small_config(4));
  auto config = small_config(4);
  config.fault_plan.enabled = true;
  config.fault_plan.offline_smx = spec.num_smx - 1;
  const auto degraded = run_small(config);
  EXPECT_GE(degraded.makespan, baseline.makespan);
  EXPECT_FALSE(degraded.degraded.degraded());
}

// ----------------------------------------------------------------- watchdog

TEST(FaultInjectorTest, WatchdogFlagsAppsPastDeadline) {
  // A 1 us deadline fires long before any app can finish: every app is
  // flagged. Detection only — the run still drains and reports.
  auto config = small_config(4);
  config.watchdog_timeout = kMicrosecond;
  const auto result = run_small(config);
  ASSERT_EQ(result.degraded.quarantined.size(), 4u);
  for (const fault::QuarantinedApp& q : result.degraded.quarantined) {
    EXPECT_EQ(q.reason, "watchdog-deadline-exceeded");
  }
}

TEST(FaultInjectorTest, GenerousWatchdogIsZeroPerturbation) {
  const auto baseline = run_small(small_config(4));
  auto config = small_config(4);
  config.watchdog_timeout = 3600 * 1000 * kMillisecond;  // one sim hour
  const auto result = run_small(config);
  EXPECT_TRUE(result.degraded.quarantined.empty());
  EXPECT_EQ(trace::digest(*result.trace), trace::digest(*baseline.trace));
  EXPECT_EQ(result.makespan, baseline.makespan);
}

// ---------------------------------------------------------- structured errors

TEST(HarnessErrorTest, EmptyWorkloadIsStructuredError) {
  fw::Harness harness(small_config(2));
  try {
    harness.run({});
    FAIL() << "expected hq::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("empty workload"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ sweep journal

exec::SweepGrid journal_grid() {
  exec::SweepGrid grid;
  grid.app_sets = {{"gaussian", "nn"}};
  grid.na = {4};
  grid.ns = {2, 4};
  grid.orders = {fw::Order::NaiveFifo};
  grid.memory_sync = {false, true};
  grid.seeds = {42};
  grid.base.functional = false;
  grid.base.sensor.noise_stddev = 0.0;
  grid.base.sensor.quantization = 0.0;
  grid.params.size = 64;
  grid.params.iterations = 2;
  return grid;
}

using Sweep = exec::SweepRunner;

TEST(SweepJournalTest, OutcomeLineRoundTripsEveryField) {
  const exec::SweepGrid grid = journal_grid();
  const auto points = Sweep::expand(grid);
  const exec::SweepOutcome outcome = Sweep::run_point(grid, points[1]);
  const std::string line = exec::journal_record_line<Sweep>(outcome);
  const auto parsed = exec::parse_journal_outcome<Sweep>(line, points);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->point.index, outcome.point.index);
  EXPECT_EQ(parsed->point.label(), outcome.point.label());
  EXPECT_EQ(parsed->makespan, outcome.makespan);
  EXPECT_EQ(parsed->trace_digest, outcome.trace_digest);
  EXPECT_EQ(parsed->all_verified, outcome.all_verified);
  EXPECT_EQ(parsed->faults_injected, outcome.faults_injected);
  EXPECT_EQ(parsed->quarantined_apps, outcome.quarantined_apps);
  // Doubles round-trip exactly (shortest to_chars form, strtod back).
  EXPECT_EQ(parsed->energy_exact, outcome.energy_exact);
  EXPECT_EQ(parsed->average_power, outcome.average_power);
  EXPECT_EQ(parsed->peak_power, outcome.peak_power);
  EXPECT_EQ(parsed->average_occupancy, outcome.average_occupancy);
}

TEST(SweepJournalTest, TornAndForeignLinesAreIgnored) {
  const exec::SweepGrid grid = journal_grid();
  const auto points = Sweep::expand(grid);
  const exec::SweepOutcome outcome = Sweep::run_point(grid, points[0]);
  const std::uint64_t key = Sweep::grid_key(grid, points);
  const std::string header =
      exec::journal_header_line(Sweep::kJournalMagic, key, points.size());

  std::stringstream journal;
  journal << header << "\n"
          << exec::journal_record_line<Sweep>(outcome) << "\n"
          << "point index=1 makespan=123";  // torn: crash mid-write, no `end`
  std::vector<std::optional<exec::SweepOutcome>> cached;
  EXPECT_EQ(exec::load_journal<Sweep>(journal, key, points, &cached), 1u);
  ASSERT_EQ(cached.size(), points.size());
  EXPECT_TRUE(cached[0].has_value());
  EXPECT_FALSE(cached[1].has_value());
  EXPECT_EQ(cached[0]->trace_digest, outcome.trace_digest);

  // Out-of-range indices are ignored too.
  std::string foreign = exec::journal_record_line<Sweep>(outcome);
  foreign.replace(foreign.find("index=0"), 7, "index=99");
  std::stringstream oob;
  oob << header << "\n" << foreign;
  cached.clear();
  EXPECT_EQ(exec::load_journal<Sweep>(oob, key, points, &cached), 0u);
}

TEST(SweepJournalTest, GridMismatchIsStructuredError) {
  const exec::SweepGrid grid = journal_grid();
  const auto points = Sweep::expand(grid);
  const std::uint64_t key = Sweep::grid_key(grid, points);
  std::stringstream journal;
  journal << exec::journal_header_line(Sweep::kJournalMagic, key ^ 1,
                                       points.size())
          << "\n";
  std::vector<std::optional<exec::SweepOutcome>> cached;
  try {
    exec::load_journal<Sweep>(journal, key, points, &cached);
    FAIL() << "expected hq::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("grid mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(SweepJournalTest, GridKeyTracksFaultPlan) {
  exec::SweepGrid grid = journal_grid();
  const auto points = Sweep::expand(grid);
  const std::uint64_t plain = Sweep::grid_key(grid, points);
  grid.base.fault_plan = fault::FaultPlan::zero();
  EXPECT_NE(Sweep::grid_key(grid, points), plain);
  grid.base.fault_plan.seed = 1;
  grid.base.fault_plan.copy_stall_rate = 0.5;
  EXPECT_NE(Sweep::grid_key(grid, points),
            Sweep::grid_key(journal_grid(), Sweep::expand(journal_grid())));
}

TEST(SweepJournalTest, GridKeyTracksBaseConfigAndParams) {
  const exec::SweepGrid base = journal_grid();
  const auto points = Sweep::expand(base);
  const std::uint64_t plain = Sweep::grid_key(base, points);

  // Every result-affecting base-config change must change the key, or
  // --resume would silently splice cached outcomes from the old
  // configuration into the new sweep.
  exec::SweepGrid g = base;
  g.base.device = gpu::DeviceSpec::fermi_single_queue();
  EXPECT_NE(Sweep::grid_key(g, points), plain);

  g = base;
  g.params.size = *base.params.size * 2;
  EXPECT_NE(Sweep::grid_key(g, points), plain);

  g = base;
  g.base.launch_stagger += kMicrosecond;
  EXPECT_NE(Sweep::grid_key(g, points), plain);

  g = base;
  g.base.retry.max_attempts += 1;
  EXPECT_NE(Sweep::grid_key(g, points), plain);

  g = base;
  g.base.watchdog_timeout = kMillisecond;
  EXPECT_NE(Sweep::grid_key(g, points), plain);

  g = base;
  g.base.blocking_transfers = !g.base.blocking_transfers;
  EXPECT_NE(Sweep::grid_key(g, points), plain);
}

TEST(SweepJournalTest, ResumeWithEmptyJournalStillWritesHeader) {
  const exec::SweepGrid grid = journal_grid();
  exec::SweepRunner runner;
  const std::string path =
      ::testing::TempDir() + "hq_fault_test_empty_journal.txt";
  // A crash before the header flush (or a touched file) leaves an empty
  // journal; resuming from it must still produce a headered journal that a
  // later --resume accepts.
  { std::ofstream touch(path, std::ios::trunc); }
  const auto first =
      runner.run(grid, {.jobs = 1, .journal_path = path, .resume = true});
  const auto resumed =
      runner.run(grid, {.jobs = 1, .journal_path = path, .resume = true});
  EXPECT_EQ(exec::combined_digest(resumed), exec::combined_digest(first));
  std::remove(path.c_str());
}

TEST(SweepJournalTest, InterruptedSweepResumesByteIdentical) {
  exec::SweepGrid grid = journal_grid();
  grid.base.fault_plan.enabled = true;
  grid.base.fault_plan.seed = 3;
  grid.base.fault_plan.copy_stall_rate = 0.25;
  exec::SweepRunner runner;

  // Reference: uninterrupted, no journal.
  const auto reference = runner.run(grid);
  ASSERT_EQ(reference.size(), 4u);

  // Journaled run, then simulate a crash by truncating to header + 2 points.
  const std::string path = ::testing::TempDir() + "hq_fault_test_journal.txt";
  (void)runner.run(grid, {.jobs = 2, .journal_path = path, .resume = false});
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 5u);  // header + 4 points
  {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) out << lines[i] << "\n";
  }

  // Resume re-runs only the missing points; the result must be
  // byte-identical to the uninterrupted run, reports and metrics included.
  const auto resumed =
      runner.run(grid, {.jobs = 2, .journal_path = path, .resume = true});
  ASSERT_EQ(resumed.size(), reference.size());
  EXPECT_EQ(exec::combined_digest(resumed), exec::combined_digest(reference));
  EXPECT_EQ(exec::render_report(resumed), exec::render_report(reference));
  EXPECT_EQ(exec::sweep_metrics_json(resumed),
            exec::sweep_metrics_json(reference));

  // Resuming under a different plan is a structured error, never a silent
  // mix of incompatible results.
  exec::SweepGrid other = grid;
  other.base.fault_plan.seed = 4;
  EXPECT_THROW(
      runner.run(other, {.jobs = 1, .journal_path = path, .resume = true}),
      Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hq
