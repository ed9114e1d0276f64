#include "tools/cli.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

#include "common/check.hpp"
#include "fault/fault.hpp"
#include "hyperq/harness.hpp"
#include "rodinia/registry.hpp"
#include "serve/service.hpp"
#include "tests/common/json_check.hpp"
#include "trace/chrome_trace.hpp"

namespace hq::tools {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args);
  return v;
}

class CliTest : public ::testing::Test {
 protected:
  CliTest() {
    parser_.add_option("na", "apps", "8");
    parser_.add_option("order", "order", "fifo");
    parser_.add_flag("memsync", "sync");
  }
  bool parse(std::initializer_list<const char*> args) {
    auto v = argv_of(args);
    return parser_.parse(static_cast<int>(v.size()), v.data());
  }
  ArgParser parser_;
};

TEST_F(CliTest, DefaultsApplyWithoutArguments) {
  EXPECT_TRUE(parse({}));
  EXPECT_EQ(parser_.get("na"), "8");
  EXPECT_EQ(*parser_.get_int("na"), 8);
  EXPECT_FALSE(parser_.get_flag("memsync"));
  EXPECT_FALSE(parser_.provided("na"));
}

TEST_F(CliTest, SpaceSeparatedValues) {
  EXPECT_TRUE(parse({"--na", "32", "--order", "rr"}));
  EXPECT_EQ(*parser_.get_int("na"), 32);
  EXPECT_EQ(parser_.get("order"), "rr");
  EXPECT_TRUE(parser_.provided("na"));
}

TEST_F(CliTest, EqualsSeparatedValues) {
  EXPECT_TRUE(parse({"--na=16", "--order=rev-rr"}));
  EXPECT_EQ(*parser_.get_int("na"), 16);
  EXPECT_EQ(parser_.get("order"), "rev-rr");
}

TEST_F(CliTest, FlagsToggle) {
  EXPECT_TRUE(parse({"--memsync"}));
  EXPECT_TRUE(parser_.get_flag("memsync"));
}

TEST_F(CliTest, UnknownOptionFails) {
  EXPECT_FALSE(parse({"--bogus", "1"}));
  EXPECT_NE(parser_.error().find("bogus"), std::string::npos);
}

TEST_F(CliTest, MissingValueFails) {
  EXPECT_FALSE(parse({"--na"}));
  EXPECT_NE(parser_.error().find("needs a value"), std::string::npos);
}

TEST_F(CliTest, FlagWithValueFails) {
  EXPECT_FALSE(parse({"--memsync=yes"}));
}

TEST_F(CliTest, PositionalArgumentFails) {
  EXPECT_FALSE(parse({"stray"}));
}

TEST_F(CliTest, NonIntegerValueYieldsNullopt) {
  EXPECT_TRUE(parse({"--order", "rr"}));
  EXPECT_FALSE(parser_.get_int("order").has_value());
}

TEST_F(CliTest, NegativeIntegersParse) {
  EXPECT_TRUE(parse({"--na", "-3"}));
  EXPECT_EQ(*parser_.get_int("na"), -3);
}

TEST_F(CliTest, UsageListsOptionsAndDefaults) {
  const std::string usage = parser_.usage("hqrun");
  EXPECT_NE(usage.find("--na"), std::string::npos);
  EXPECT_NE(usage.find("default: 8"), std::string::npos);
  EXPECT_NE(usage.find("--memsync"), std::string::npos);
}

TEST_F(CliTest, UnregisteredAccessThrows) {
  EXPECT_THROW(parser_.get("nope"), hq::Error);
  EXPECT_THROW(parser_.provided("nope"), hq::Error);
}

TEST_F(CliTest, DuplicateRegistrationThrows) {
  EXPECT_THROW(parser_.add_option("na", "again"), hq::Error);
  EXPECT_THROW(parser_.add_flag("memsync", "again"), hq::Error);
}

// ------------------------------------------------- hqrun-level validation
//
// Mirrors the option set hqrun registers, so the rejection paths the tool
// relies on (bad values, flag/option confusion, unknown applications) are
// pinned here without spawning the binary.

class HqrunCliTest : public ::testing::Test {
 protected:
  HqrunCliTest() {
    parser_.add_option("apps", "types", "gaussian,needle");
    parser_.add_option("na", "apps", "8");
    parser_.add_option("ns", "streams", "8");
    parser_.add_option("order", "order", "fifo");
    parser_.add_flag("memsync", "sync");
    parser_.add_option("device", "model", "k20");
    parser_.add_flag("functional", "verify");
  }
  bool parse(std::initializer_list<const char*> args) {
    auto v = argv_of(args);
    return parser_.parse(static_cast<int>(v.size()), v.data());
  }
  ArgParser parser_;
};

TEST_F(HqrunCliTest, InvalidFlagCombinationsAreRejected) {
  EXPECT_FALSE(parse({"--functional=yes"}));   // flag given a value
  EXPECT_FALSE(parse({"--ns"}));               // option missing its value
  EXPECT_FALSE(parse({"--streams", "8"}));     // unregistered spelling
  EXPECT_FALSE(parse({"--na", "8", "extra"})); // stray positional
}

TEST_F(HqrunCliTest, NonNumericCountsSurfaceAsNullopt) {
  // hqrun turns these nullopts into its "bad --order/--device/--na/--ns"
  // usage error (exit code 2).
  ASSERT_TRUE(parse({"--na", "lots", "--ns", "many"}));
  EXPECT_FALSE(parser_.get_int("na").has_value());
  EXPECT_FALSE(parser_.get_int("ns").has_value());
}

TEST_F(HqrunCliTest, UnknownApplicationNamesAreDetectable) {
  ASSERT_TRUE(parse({"--apps", "gaussian,blur"}));
  EXPECT_TRUE(rodinia::is_app_name("gaussian"));
  EXPECT_FALSE(rodinia::is_app_name("blur"));
  EXPECT_FALSE(rodinia::is_app_name(""));
  EXPECT_FALSE(rodinia::is_app_name("GAUSSIAN"));  // names are exact
  for (const auto& name : rodinia::app_names()) {
    EXPECT_TRUE(rodinia::is_app_name(name)) << name;
  }
}

// ------------------------------------------------ hqserve-level validation

TEST(HqserveCliTest, SingleDeviceCrashPlanIsAnError) {
  // hqserve --mix gaussian --size 64 --window-ms 10
  //         --fault-plan crash-at-us=3000,seed=1
  // without --devices: the plan would take the only device down, so the
  // run fails (exit 3) and points at fleet mode instead of ignoring it.
  std::string error;
  const auto plan = fault::parse_fault_plan("crash-at-us=3000,seed=1", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  serve::ServiceConfig config;
  config.window = 10 * kMillisecond;
  config.fault_plan = *plan;
  config.classes.push_back(
      {rodinia::make_app("gaussian", rodinia::AppParams{64, {}, {}}), 0});
  try {
    serve::Service(config).run();
    FAIL() << "a single-device crash plan must be rejected";
  } catch (const hq::Error& e) {
    EXPECT_NE(std::string(e.what()).find("--devices"), std::string::npos)
        << e.what();
  }
}

// Shared with the obs/trace export tests: tests/common/json_check.hpp.
using hq::testing::json_well_formed;

TEST(HqrunTraceJsonTest, JsonCheckerRejectsMalformedInput) {
  EXPECT_TRUE(json_well_formed("[\n]\n"));
  EXPECT_TRUE(json_well_formed("[{\"a\": \"b\"}, {\"c\": 1}]"));
  EXPECT_FALSE(json_well_formed("[{\"a\": \"b\"}"));    // unbalanced
  EXPECT_FALSE(json_well_formed("[{\"a\": \"b\"},]"));  // trailing comma
  EXPECT_FALSE(json_well_formed("[\"unterminated]"));   // open string
  EXPECT_FALSE(json_well_formed("[}"));                 // mismatched
}

TEST(HqrunTraceJsonTest, HarnessTraceExportIsWellFormedJson) {
  // End-to-end: the same trace hqrun writes for --trace must scan clean.
  fw::HarnessConfig config;
  config.num_streams = 2;
  config.monitor_power = false;
  rodinia::AppParams params;
  params.size = 32;
  const auto result = fw::Harness(config).run(
      {rodinia::make_app("needle", params),
       rodinia::make_app("gaussian", rodinia::AppParams{16, {}, {}})});
  ASSERT_NE(result.trace, nullptr);
  ASSERT_FALSE(result.trace->empty());

  const std::string json = trace::chrome_trace_json(*result.trace);
  EXPECT_TRUE(json_well_formed(json));

  std::ostringstream out;
  trace::write_chrome_trace(*result.trace, out);
  EXPECT_TRUE(json_well_formed(out.str()));
  EXPECT_EQ(out.str(), json);
}

}  // namespace
}  // namespace hq::tools
