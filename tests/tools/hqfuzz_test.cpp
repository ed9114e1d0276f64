// End-to-end checks of the built hqfuzz: a replay runs the layers it is
// given; the output is byte-identical at any job count. Its usage errors
// are rows of cli_table_test.cpp. HQ_HQFUZZ_PATH is the binary's path, set
// by CMake.
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
