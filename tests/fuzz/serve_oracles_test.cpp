#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "common/codec.hpp"

namespace hq::check {
namespace {

/// The first problem, for a failure message.
std::string first(const std::vector<std::string>& problems) {
  return problems.empty() ? "" : problems.front();
}

TEST(ServeFuzzTest, CaseGenerationIsDeterministic) {
  const serve::ServiceConfig a = draw_serve_case(42);
  const serve::ServiceConfig b = draw_serve_case(42);
  EXPECT_EQ(codec::to_text(a), codec::to_text(b));
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.queue_cap, b.queue_cap);
  EXPECT_EQ(a.classes.size(), b.classes.size());

  EXPECT_NE(codec::to_text(a), codec::to_text(draw_serve_case(43)));
}

TEST(ServeFuzzTest, CasesExerciseTheKnobSpace) {
  bool saw_two_classes = false;
  bool saw_deadline = false;
  bool saw_non_drop_tail = false;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const serve::ServiceConfig c = draw_serve_case(seed);
    EXPECT_GE(c.classes.size(), 1u);
    EXPECT_GT(c.queue_cap, c.max_inflight);
    saw_two_classes |= c.classes.size() == 2;
    saw_deadline |= c.deadline > 0;
    saw_non_drop_tail |= c.shed_policy != serve::ShedPolicy::DropTail;
  }
  EXPECT_TRUE(saw_two_classes);
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_non_drop_tail);
}

TEST(ServeFuzzTest, SampledCasesAreClean) {
  // A handful of full serving-oracle evaluations; CI fuzzes wider via
  // hqfuzz --serve-iters.
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    const serve::ServiceConfig config = draw_serve_case(seed);
    const std::vector<std::string> problems = Fuzzer::check_serve(seed, config);
    EXPECT_TRUE(problems.empty())
        << "case " << codec::to_text(config) << " violated:\n  "
        << first(problems);
  }
}

TEST(ServeFuzzTest, RunnerAppendsServeIterations) {
  FuzzOptions options;
  options.seed = 5;
  options.iterations = 0;  // serve-only sweep
  options.serve_iterations = 2;
  std::vector<std::string> summaries;
  const FuzzReport report = Fuzzer(options).run(
      [&summaries](int, std::uint64_t, const std::string& summary, bool) {
        summaries.push_back(summary);
      });
  EXPECT_EQ(report.iterations_run, 2);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_NE(summaries[0].find("serve seed="), std::string::npos);
}

TEST(FleetFuzzTest, SampledCasesAreClean) {
  // Fleet cases from master seed 1 on one, two and three devices.
  for (const std::uint64_t seed :
       {12966619160104079557ull, 7218738570589545383ull,
        1310552918490157286ull}) {
    const fleet::FleetConfig config = draw_fleet_case(seed);
    std::string flag;
    const std::vector<std::string> problems =
        Fuzzer::check_fleet(seed, config, &flag);
    EXPECT_TRUE(problems.empty())
        << "case " << codec::to_text(config) << " violated:\n  "
        << first(problems);
  }
}

TEST(FleetSdcFuzzTest, SampledCasesAreClean) {
  // Each case blocklists devices and serves some corruption undetected
  // (sdc_missed > 0) under a failover budget other than the default, so
  // the blocklist-leak, partition and inert-layer oracles all bite. The
  // first case stops the test: a placer that ignores the blocklist makes
  // the later two runs never finish, but this one finishes and leaks.
  for (const std::uint64_t seed :
       {4560570958642824732ull, 7031611932980406429ull,
        15996139959407692321ull}) {
    const fleet::FleetConfig config = draw_sdc_case(seed, 0.5);
    const std::vector<std::string> problems = Fuzzer::check_sdc(seed, config);
    ASSERT_TRUE(problems.empty())
        << "case " << codec::to_text(config) << " violated:\n  "
        << first(problems);
  }
}

TEST(FleetChaosFuzzTest, FailoverShedBackCaseIsClean) {
  // In this case's failover shed-back run a job dispatches on flapping
  // device 0, fails over when it goes down, and fails back onto device 0's
  // full queue when device 1 crashes. It ends shed while owning the spans
  // of its cancelled first attempt: a legal history the serve accounting
  // check once rejected.
  const std::uint64_t seed = 17202925169076741841ull;
  const fleet::FleetConfig config = draw_chaos_case(seed, 0.5);
  const std::vector<std::string> problems = Fuzzer::check_chaos(seed, config);
  EXPECT_TRUE(problems.empty())
      << "case " << codec::to_text(config) << " violated:\n  "
      << first(problems);
}

TEST(FuzzerTest, ReportPrintsEachFailingCase) {
  FuzzReport report;
  report.iterations_run = 4;
  report.failures.push_back({3, 42, "chaos", "base={seed=7}", {"a", "b"}});
  EXPECT_EQ(report.to_string(),
            "4 iteration(s), 1 failing case(s)\n"
            "[iteration 3] chaos seed=42\n"
            "  case base={seed=7}\n"
            "  - a\n"
            "  - b");
}

TEST(FuzzerTest, EveryModeReportsTheSameAtAnyJobCount) {
  // Harness (with faults), serve, and fleet iterations with both layers in
  // one run. The fleet seeds (master seed 1, iterations 4..15) include the
  // chaos shed-back case and SDC cases with blocklists and missed
  // corruption.
  FuzzOptions options;
  options.seed = 1;
  options.iterations = 2;
  options.fault_rate = 0.5;
  options.serve_iterations = 2;
  options.fleet_iterations = 12;
  options.chaos_rate = 0.5;
  options.sdc_rate = 0.5;
  const auto run = [&options](int jobs, std::vector<std::string>* progress) {
    options.jobs = jobs;
    return Fuzzer(options)
        .run([progress](int i, std::uint64_t seed, const std::string& summary,
                        bool clean) {
          progress->push_back(std::to_string(i) + " " + std::to_string(seed) +
                              " " + summary + (clean ? " ok" : " FAIL"));
        })
        .to_string();
  };
  std::vector<std::string> serial;
  std::vector<std::string> parallel;
  const std::string serial_report = run(1, &serial);
  EXPECT_EQ(serial_report, "16 iteration(s), 0 failing case(s)")
      << serial_report;
  EXPECT_EQ(run(4, &parallel), serial_report);
  EXPECT_EQ(parallel, serial);
  ASSERT_EQ(serial.size(), 16u);
  EXPECT_NE(serial[4].find(" fleet+chaos+sdc seed="), std::string::npos)
      << serial[4];
}

}  // namespace
}  // namespace hq::check
