// Determinism-under-parallelism: the same sweep grid must produce
// byte-identical outcomes, digests, and rendered reports at any job count,
// including heavy oversubscription (more jobs than hardware threads).
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"

namespace hq::exec {
namespace {

// Small but non-trivial grid: 2 app sets x 1 NA x 2 NS x 2 orders x
// 2 memsync x 1 seed = 16 points, tiny app inputs for speed.
SweepGrid test_grid() {
  SweepGrid grid;
  grid.app_sets = {{"gaussian", "nn"}, {"needle", "srad"}};
  grid.na = {4};
  grid.ns = {2, 4};
  grid.orders = {fw::Order::NaiveFifo, fw::Order::RandomShuffle};
  grid.memory_sync = {false, true};
  grid.seeds = {42};
  grid.base.functional = false;
  grid.base.sensor.noise_stddev = 0.0;
  grid.base.sensor.quantization = 0.0;
  grid.params.size = 64;
  grid.params.iterations = 2;
  return grid;
}

TEST(SweepExpandTest, RowMajorOrderAndIndexing) {
  const SweepGrid grid = test_grid();
  const auto points = SweepRunner::expand(grid);
  ASSERT_EQ(points.size(), 16u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
  // app_sets is the outermost axis, seeds the innermost.
  EXPECT_EQ(points[0].apps, (std::vector<std::string>{"gaussian", "nn"}));
  EXPECT_EQ(points[8].apps, (std::vector<std::string>{"needle", "srad"}));
  // Within one app set: ns varies slowest of the remaining axes...
  EXPECT_EQ(points[0].ns, 2);
  EXPECT_EQ(points[4].ns, 4);
  // ...then order, then memory_sync.
  EXPECT_EQ(points[0].order, fw::Order::NaiveFifo);
  EXPECT_EQ(points[2].order, fw::Order::RandomShuffle);
  EXPECT_FALSE(points[0].memory_sync);
  EXPECT_TRUE(points[1].memory_sync);
}

TEST(SweepExpandTest, CountsSplitEvenlyWithRemainderToLaterTypes) {
  SweepPoint p;
  p.apps = {"gaussian", "nn"};
  p.na = 7;
  EXPECT_EQ(p.counts(), (std::vector<int>{3, 4}));
  p.apps = {"gaussian", "nn", "srad"};
  p.na = 8;
  EXPECT_EQ(p.counts(), (std::vector<int>{2, 3, 3}));
  p.na = 3;
  EXPECT_EQ(p.counts(), (std::vector<int>{1, 1, 1}));
}

TEST(SweepExpandTest, RejectsMalformedGrids) {
  SweepGrid grid = test_grid();
  grid.app_sets = {};
  EXPECT_THROW(SweepRunner::expand(grid), Error);

  grid = test_grid();
  grid.app_sets = {{"no_such_app"}};
  EXPECT_THROW(SweepRunner::expand(grid), Error);

  grid = test_grid();
  grid.na = {1};  // two types need at least two instances
  EXPECT_THROW(SweepRunner::expand(grid), Error);

  grid = test_grid();
  grid.ns = {0};
  EXPECT_THROW(SweepRunner::expand(grid), Error);
}

TEST(SweepRunnerTest, IdenticalResultsAtJobs128AndOversubscribed) {
  const SweepGrid grid = test_grid();
  SweepRunner runner;

  const auto serial = runner.run(grid, {.jobs = 1});
  ASSERT_EQ(serial.size(), 16u);
  for (const SweepOutcome& o : serial) {
    EXPECT_GT(o.makespan, 0u) << o.point.label();
    EXPECT_NE(o.trace_digest, 0u) << o.point.label();
  }

  // 2 and 8 workers, plus deliberate oversubscription: far more jobs than
  // this machine has hardware threads. Outcomes must be bit-identical.
  const int oversub = 4 * ThreadPool::hardware_jobs() + 3;
  for (const int jobs : {2, 8, oversub}) {
    const auto parallel = runner.run(grid, {.jobs = jobs});
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].point.index, serial[i].point.index);
      EXPECT_EQ(parallel[i].trace_digest, serial[i].trace_digest)
          << "jobs=" << jobs << " point " << serial[i].point.label();
      EXPECT_EQ(parallel[i].makespan, serial[i].makespan);
      EXPECT_DOUBLE_EQ(parallel[i].energy_exact, serial[i].energy_exact);
      EXPECT_DOUBLE_EQ(parallel[i].average_power, serial[i].average_power);
      EXPECT_DOUBLE_EQ(parallel[i].peak_power, serial[i].peak_power);
    }
    EXPECT_EQ(combined_digest(parallel), combined_digest(serial))
        << "jobs=" << jobs;
    // The full rendered aggregate must match byte for byte.
    EXPECT_EQ(render_report(parallel), render_report(serial))
        << "jobs=" << jobs;
  }
}

TEST(SweepRunnerTest, MetricsJsonByteIdenticalAcrossJobCounts) {
  // Telemetry extends the PR-2 contract: with collect_telemetry on, the
  // rendered sweep metrics report must also be byte-identical at any --jobs.
  SweepGrid grid = test_grid();
  grid.app_sets = {{"gaussian", "nn"}};
  grid.base.collect_telemetry = true;
  SweepRunner runner;
  const auto serial = runner.run(grid, {.jobs = 1});
  ASSERT_EQ(serial.size(), 8u);
  for (const SweepOutcome& o : serial) {
    EXPECT_GT(o.mean_htod_latency_ns, 0.0) << o.point.label();
    EXPECT_GT(o.peak_copy_queue_depth_htod, 0.0) << o.point.label();
  }
  const std::string serial_json = sweep_metrics_json(serial);
  for (const int jobs : {2, 4}) {
    const auto parallel = runner.run(grid, {.jobs = jobs});
    EXPECT_EQ(sweep_metrics_json(parallel), serial_json) << "jobs=" << jobs;
  }
}

TEST(SweepRunnerTest, JobsZeroMeansHardwareConcurrency) {
  SweepGrid grid = test_grid();
  grid.app_sets = {{"gaussian", "nn"}};
  grid.ns = {2};
  grid.orders = {fw::Order::NaiveFifo};
  grid.memory_sync = {false};
  SweepRunner runner;
  const auto hw = runner.run(grid, {.jobs = 0});
  const auto serial = runner.run(grid, {.jobs = 1});
  ASSERT_EQ(hw.size(), 1u);
  EXPECT_EQ(combined_digest(hw), combined_digest(serial));
  EXPECT_THROW(runner.run(grid, {.jobs = -1}), Error);
}

TEST(SweepRunnerTest, CombinedDigestIsOrderAndValueSensitive) {
  const SweepGrid grid = test_grid();
  const auto points = SweepRunner::expand(grid);
  std::vector<SweepOutcome> a;
  for (std::size_t i = 0; i < 3; ++i) {
    a.push_back(SweepRunner::run_point(grid, points[i]));
  }
  auto b = a;
  std::swap(b[0], b[1]);
  EXPECT_NE(combined_digest(a), combined_digest(b));
  b = a;
  b[2].trace_digest ^= 1;
  EXPECT_NE(combined_digest(a), combined_digest(b));
}

}  // namespace
}  // namespace hq::exec
