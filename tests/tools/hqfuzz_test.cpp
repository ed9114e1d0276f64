// End-to-end checks of the built hqfuzz: rate flags that no iteration of
// the run reads, more than one replay seed, and loop flags given to a
// replay are usage errors (exit 2);
// a replay runs the layers it is given; the output is byte-identical at any
// job count. HQ_HQFUZZ_PATH is the binary's path, set by CMake.
#include <gtest/gtest.h>

#include <string>

#include "tests/common/run_command.hpp"

namespace hq::tools {
namespace {

using Outcome = hq::testing::CommandOutcome;

/// Runs `hqfuzz <args>`; the output is its stdout and stderr.
Outcome hqfuzz(const std::string& args) {
  return hq::testing::run_command(std::string("'") + HQ_HQFUZZ_PATH + "' " +
                                  args + " 2>&1");
}

TEST(HqfuzzCliTest, UnreadRatesAndSeveralReplaySeedsAreUsageErrors) {
  for (const char* args : {
           "--case-seed 5 --chaos-rate 0.5",
           "--serve-case-seed 5 --sdc-rate 0.5",
           "--fleet-case-seed 5 --fault-rate 0.5",
           "--iters 0 --serve-iters 1 --chaos-rate 0.5",
           "--iters 0 --serve-iters 1 --sdc-rate 0.5",
           "--iters 0 --fleet-iters 1 --fault-rate 0.5",
           "--case-seed 5 --serve-case-seed 5",
           "--serve-case-seed 5 --fleet-case-seed 5",
           "--iters 1 --fault-rate 1.5",
           "--iters 1 --fault-rate nan",
           "--case-seed 5 --seed 3",
           "--case-seed 5 --iters 2",
           "--serve-case-seed 5 --serve-iters 1",
           "--fleet-case-seed 5 --fleet-iters 1",
           "--case-seed 5 --fleet-iters 0",
           "--serve-case-seed 5 --jobs 2",
           "--fleet-case-seed 5 --verbose",
       }) {
    const Outcome run = hqfuzz(args);
    EXPECT_EQ(run.exit_code, 2) << args << "\n" << run.output;
    EXPECT_EQ(run.output.rfind("error: ", 0), 0u) << args << "\n"
                                                  << run.output;
  }
}

TEST(HqfuzzCliTest, ReplayRunsTheGivenLayers) {
  const Outcome run =
      hqfuzz("--fleet-case-seed 17202925169076741841 --chaos-rate 0.5");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output,
            "case fleet+chaos seed=17202925169076741841\n"
            "1 iteration(s), 0 failing case(s)\n");
}

TEST(HqfuzzCliTest, OutputIsByteIdenticalAcrossJobCounts) {
  const std::string args =
      "--seed 3 --iters 2 --fault-rate 0.5 --serve-iters 2 --fleet-iters 3"
      " --chaos-rate 0.5 --sdc-rate 0.5 --verbose";
  const Outcome serial = hqfuzz(args + " --jobs 1");
  const Outcome parallel = hqfuzz(args + " --jobs 4");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.output;
  EXPECT_EQ(serial.output, parallel.output);
  EXPECT_NE(serial.output.find("fleet+chaos+sdc seed="), std::string::npos)
      << serial.output;
}

}  // namespace
}  // namespace hq::tools
