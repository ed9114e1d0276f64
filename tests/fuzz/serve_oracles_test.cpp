#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fuzzer.hpp"

namespace hq::check {
namespace {

TEST(ServeFuzzTest, CaseGenerationIsDeterministic) {
  const ServeFuzzCase a = generate_serve_case(42);
  const ServeFuzzCase b = generate_serve_case(42);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.config.queue_cap, b.config.queue_cap);
  EXPECT_EQ(a.config.classes.size(), b.config.classes.size());

  const ServeFuzzCase c = generate_serve_case(43);
  EXPECT_NE(a.summary(), c.summary());
}

TEST(ServeFuzzTest, CasesExerciseTheKnobSpace) {
  bool saw_two_classes = false;
  bool saw_deadline = false;
  bool saw_non_drop_tail = false;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ServeFuzzCase c = generate_serve_case(seed);
    EXPECT_GE(c.config.classes.size(), 1u);
    EXPECT_GT(c.config.queue_cap, c.config.max_inflight);
    saw_two_classes |= c.config.classes.size() == 2;
    saw_deadline |= c.config.deadline > 0;
    saw_non_drop_tail |= c.config.shed_policy != serve::ShedPolicy::DropTail;
  }
  EXPECT_TRUE(saw_two_classes);
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_non_drop_tail);
}

TEST(ServeFuzzTest, SampledCasesAreClean) {
  // A handful of full serving-oracle evaluations; CI fuzzes wider via
  // hqfuzz --serve-iters.
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    std::string summary;
    const std::vector<std::string> problems =
        Fuzzer::run_serve_case(seed, &summary);
    EXPECT_TRUE(problems.empty())
        << "case " << summary << " violated:\n  " << problems[0];
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

TEST(FleetChaosFuzzTest, FailoverShedBackCaseIsClean) {
  // In this case's failover shed-back run a job dispatches on flapping
  // device 0, fails over when it goes down, and fails back onto device 0's
  // full queue when device 1 crashes. It ends shed while owning the spans
  // of its cancelled first attempt: a legal history the serve accounting
  // check once rejected.
  std::string summary;
  const std::vector<std::string> problems =
      Fuzzer::run_fleet_chaos_case(17202925169076741841ull, 0.5, &summary);
  EXPECT_TRUE(problems.empty())
      << "case " << summary << " violated:\n  " << problems[0];
}

}  // namespace
}  // namespace hq::check
