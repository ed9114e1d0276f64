// Parameterized functional sweeps: every ported application verifies against
// its independent reference across a matrix of problem sizes and seeds, run
// end-to-end through the framework (allocation, transfers, kernels,
// read-back) in both serialized and concurrent configurations.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "hyperq/harness.hpp"
#include "rodinia/registry.hpp"

namespace hq::rodinia {
namespace {

struct FunctionalCase {
  const char* app;
  int size;
  std::uint64_t seed;
};

// gtest prints a parameter into every ctest test name. A plain struct
// prints as its raw bytes, which hold the ASLR-moved address of `app`, so
// print it by value.
void PrintTo(const FunctionalCase& c, std::ostream* os) {
  *os << c.app << " size=" << c.size << " seed=" << c.seed;
}

/// The size x seed matrix both sweeps below run.
const auto kSizeSeedCases = ::testing::Values(
    FunctionalCase{"gaussian", 16, 1}, FunctionalCase{"gaussian", 40, 2},
    FunctionalCase{"gaussian", 96, 3}, FunctionalCase{"nn", 128, 4},
    FunctionalCase{"nn", 1001, 5}, FunctionalCase{"nn", 4096, 6},
    FunctionalCase{"needle", 32, 7}, FunctionalCase{"needle", 64, 8},
    FunctionalCase{"needle", 160, 9}, FunctionalCase{"srad", 16, 10},
    FunctionalCase{"srad", 32, 11}, FunctionalCase{"srad", 64, 12});

std::string case_name(const ::testing::TestParamInfo<FunctionalCase>& info) {
  return std::string(info.param.app) + "_" + std::to_string(info.param.size);
}

class RodiniaFunctional : public ::testing::TestWithParam<FunctionalCase> {};

TEST_P(RodiniaFunctional, VerifiesConcurrentWithSelf) {
  // Two instances of the same app running concurrently must both verify:
  // no cross-instance state leaks through the device model.
  const FunctionalCase c = GetParam();
  fw::HarnessConfig config;
  config.functional = true;
  config.num_streams = 2;
  config.monitor_power = false;

  AppParams a = {c.size, std::nullopt, c.seed};
  AppParams b = {c.size, std::nullopt, c.seed + 17};
  if (std::string(c.app) == "srad") {
    a.iterations = 2;
    b.iterations = 2;
  }
  fw::Harness harness(config);
  const auto result = harness.run({make_app(c.app, a), make_app(c.app, b)});
  EXPECT_TRUE(result.all_verified) << c.app << " size=" << c.size;
}

INSTANTIATE_TEST_SUITE_P(SizeSeedSweep, RodiniaFunctional, kSizeSeedCases,
                         case_name);

class MixedFunctional : public ::testing::TestWithParam<bool> {};

TEST_P(MixedFunctional, HeterogeneousConcurrentWorkloadVerifies) {
  // All four applications concurrently, with and without memory sync: the
  // full paper scenario at miniature scale, functionally checked.
  const bool memory_sync = GetParam();
  fw::HarnessConfig config;
  config.functional = true;
  config.num_streams = 4;
  config.memory_sync = memory_sync;
  config.monitor_power = false;

  AppParams small_square = {32, 2, 21};
  AppParams nn_params = {500, std::nullopt, 22};
  fw::Harness harness(config);
  const auto result = harness.run({
      make_app("gaussian", small_square),
      make_app("nn", nn_params),
      make_app("needle", small_square),
      make_app("srad", small_square),
  });
  EXPECT_TRUE(result.all_verified);
  EXPECT_EQ(result.apps.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(SyncModes, MixedFunctional, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "memsync" : "default";
                         });

class RodiniaSerialized : public ::testing::TestWithParam<FunctionalCase> {};

TEST_P(RodiniaSerialized, Verifies) {
  const FunctionalCase c = GetParam();
  fw::HarnessConfig config;
  config.functional = true;
  config.num_streams = 1;
  config.monitor_power = false;

  AppParams params;
  params.size = c.size;
  params.seed = c.seed;
  if (std::string(c.app) == "srad") params.iterations = 3;

  fw::Harness harness(config);
  const auto result = harness.run({make_app(c.app, params)});
  EXPECT_TRUE(result.all_verified) << c.app << " size=" << c.size;
}

INSTANTIATE_TEST_SUITE_P(SizeSeedSweep, RodiniaSerialized, kSizeSeedCases,
                         case_name);

}  // namespace
}  // namespace hq::rodinia
