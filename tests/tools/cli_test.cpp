#include "tools/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/units.hpp"
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

/// A config for member-bound flags. `unlisted` has no codec row.
struct Knobs {
  int na = 0;
  double rate = 0;
  bool sync = false;
  std::uint64_t gap = 0;
  int unlisted = 0;
};

std::span<const codec::Field<Knobs>> codec_fields(const Knobs&) {
  static constexpr auto kFields = codec::table<Knobs, 4>({
      codec::row<&Knobs::na>("na", {.min = 1}),
      codec::row<&Knobs::rate>("rate", {.min = 0, .max = 1, .min_open = true}),
      codec::row<&Knobs::sync>("sync"),
      codec::row<&Knobs::gap>("gap", {.min = 0, .min_open = true}),
  });
  return kFields;
}

constexpr unsigned kModeA = 1, kModeB = 2;

class CliTest : public ::testing::Test {
 protected:
  /// Parses `args` with a fresh table and checks its modes against `active`.
  bool parse(std::initializer_list<const char*> args,
             unsigned active = kModeA) {
    knobs_ = Knobs{};
    order_ = 0;
    seed_.reset();
    table_ = std::make_unique<FlagTable>(
        std::vector<Flag>{
            {"na", "apps", "8", member<&Knobs::na>(knobs_)},
            {"rate", "a rate", "0.5", member<&Knobs::rate>(knobs_), kModeB},
            {"memsync", "sync", nullptr, member<&Knobs::sync>(knobs_)},
            {"gap-us", "a gap (us)", "2",
             member<&Knobs::gap>(knobs_, kMicrosecond)},
            {"order", "order", "fifo", names(&order_, {"fifo", "rr"})},
            {"seed", "seed", nullptr, value(&seed_)},
            {"delta", "any integer", "0", value(&delta_)},
            {"caps", "sizes", nullptr, list(&caps_, {.min = 1})},
        },
        std::vector<std::string>{"mode a", "mode b"});
    auto v = argv_of(args);
    return table_->parse(static_cast<int>(v.size()), v.data()) &&
           table_->check_modes(active);
  }
  const std::string& error() const { return table_->error(); }

  Knobs knobs_;
  std::size_t order_ = 0;
  std::optional<std::uint64_t> seed_;
  int delta_ = 0;
  std::vector<std::size_t> caps_;
  std::unique_ptr<FlagTable> table_;
};

TEST_F(CliTest, DefaultsApplyWithoutArguments) {
  EXPECT_TRUE(parse({}));
  EXPECT_EQ(knobs_.na, 8);
  EXPECT_EQ(knobs_.rate, 0.5);
  EXPECT_FALSE(knobs_.sync);
  EXPECT_EQ(knobs_.gap, 2 * kMicrosecond);
  EXPECT_EQ(order_, 0u);
  EXPECT_FALSE(seed_.has_value());  // no default: written only when given
  EXPECT_TRUE(caps_.empty());
  EXPECT_FALSE(table_->help());
}

TEST_F(CliTest, SpaceSeparatedValues) {
  EXPECT_TRUE(parse({"--na", "32", "--order", "rr", "--seed", "7"}));
  EXPECT_EQ(knobs_.na, 32);
  EXPECT_EQ(order_, 1u);
  EXPECT_EQ(seed_, 7u);
}

TEST_F(CliTest, EqualsSeparatedValues) {
  EXPECT_TRUE(parse({"--na=16", "--order=rr"}));
  EXPECT_EQ(knobs_.na, 16);
  EXPECT_EQ(order_, 1u);
}

TEST_F(CliTest, FlagsToggle) {
  EXPECT_TRUE(parse({"--memsync"}));
  EXPECT_TRUE(knobs_.sync);
  EXPECT_TRUE(parse({"--help"}));
  EXPECT_TRUE(table_->help());
}

TEST_F(CliTest, UnknownOptionFails) {
  EXPECT_FALSE(parse({"--bogus", "1"}));
  EXPECT_EQ(error(), "unknown option '--bogus'");
}

TEST_F(CliTest, MissingValueFails) {
  EXPECT_FALSE(parse({"--na"}));
  EXPECT_EQ(error(), "option '--na' needs a value");
}

TEST_F(CliTest, FlagWithValueFails) {
  EXPECT_FALSE(parse({"--memsync=yes"}));
  EXPECT_EQ(error(), "flag '--memsync' does not take a value");
}

TEST_F(CliTest, PositionalArgumentFails) {
  EXPECT_FALSE(parse({"stray"}));
  EXPECT_EQ(error(), "unexpected positional argument 'stray'");
}

TEST_F(CliTest, NonIntegerValueYieldsNullopt) {
  // A malformed value is a usage error naming the flag, and the target
  // keeps its state: an optional stays unset.
  EXPECT_FALSE(parse({"--seed", "x"}));
  EXPECT_FALSE(seed_.has_value());
  EXPECT_EQ(error(), "--seed needs an integer >= 0, got 'x'");
  EXPECT_FALSE(parse({"--na", "rr"}));
  EXPECT_EQ(error(), "--na needs an integer >= 1, got 'rr'");
  EXPECT_FALSE(parse({"--order", "3"}));
  EXPECT_EQ(error(), "--order needs one of fifo|rr, got '3'");
}

TEST_F(CliTest, NegativeIntegersParse) {
  EXPECT_TRUE(parse({"--delta", "-3"}));
  EXPECT_EQ(delta_, -3);
  // The na row's bound rejects it; an unsigned target rejects the sign.
  EXPECT_FALSE(parse({"--na", "-3"}));
  EXPECT_EQ(error(), "--na needs an integer >= 1, got '-3'");
  EXPECT_FALSE(parse({"--seed", "-1"}));
}

TEST_F(CliTest, DoublesAreRangeChecked) {
  EXPECT_TRUE(parse({"--rate", "1"}, kModeB));
  EXPECT_EQ(knobs_.rate, 1.0);
  for (const char* value : {"1.5", "nan", "", "0.5x", "0"}) {
    EXPECT_FALSE(parse({"--rate", value}, kModeB)) << value;
    EXPECT_EQ(error(), "--rate needs a number in (0, 1], got '" +
                           std::string(value) + "'");
  }
  // The wording of each bound form comes from codec::accepts.
  using codec::Kind;
  EXPECT_EQ(codec::accepts({.kind = Kind::Double, .min = 0, .max = 1}),
            "a number in [0, 1]");
  EXPECT_EQ(codec::accepts({.kind = Kind::Double, .min = 0}),
            "a number >= 0");
  EXPECT_EQ(codec::accepts({.kind = Kind::Double, .min = 0, .min_open = true}),
            "a number > 0");
  EXPECT_EQ(codec::accepts({.kind = Kind::Int}), "an integer");
}

TEST_F(CliTest, ScaledMembersTakeTheirUnitAndTheRowBounds) {
  EXPECT_TRUE(parse({"--gap-us", "3"}));
  EXPECT_EQ(knobs_.gap, 3 * kMicrosecond);
  for (const char* value : {"0", "-1", "1.5", "18446744073709552"}) {
    EXPECT_FALSE(parse({"--gap-us", value})) << value;
    EXPECT_EQ(error(), "--gap-us needs an integer > 0, got '" +
                           std::string(value) + "'");
  }
}

TEST_F(CliTest, ListsRejectWhatTheyCannotHold) {
  EXPECT_TRUE(parse({"--caps", "1,2,,4"}));
  EXPECT_EQ(caps_, (std::vector<std::size_t>{1, 2, 4}));
  for (const char* value : {"-1", "0", "1,x", ",", "18446744073709551616"}) {
    EXPECT_FALSE(parse({"--caps", value})) << value;
    EXPECT_EQ(error(), "--caps needs a comma list, each an integer >= 1, "
                       "got '" + std::string(value) + "'");
  }
}

TEST_F(CliTest, FlagsOutsideTheirModesAreErrors) {
  EXPECT_TRUE(parse({"--rate", "0.7"}, kModeA | kModeB));
  EXPECT_FALSE(parse({"--rate", "0.7"}, kModeA));
  EXPECT_EQ(error(), "--rate does not apply to mode a (it needs mode b)");
  // A default is not a given flag: the mode rule leaves it alone.
  EXPECT_TRUE(parse({}, kModeA));
}

TEST_F(CliTest, UsageListsOptionsAndDefaults) {
  ASSERT_TRUE(parse({}));
  const std::string usage = table_->usage("hqrun");
  EXPECT_EQ(usage.rfind("usage: hqrun [options]\n", 0), 0u) << usage;
  EXPECT_NE(usage.find("  --na <value>\n      apps (default: 8)\n"),
            std::string::npos)
      << usage;
  EXPECT_NE(usage.find("  --memsync\n      sync\n"), std::string::npos);
  EXPECT_NE(usage.find("  --seed <value>\n      seed\n"), std::string::npos);
  EXPECT_NE(usage.find("  --help\n"), std::string::npos);
}

TEST_F(CliTest, UnregisteredAccessThrows) {
  // A flag over a member without a codec row has no range to take.
  EXPECT_THROW(member<&Knobs::unlisted>(knobs_), hq::Error);
}

TEST_F(CliTest, DuplicateRegistrationThrows) {
  int n = 0;
  EXPECT_THROW(FlagTable({{"n", "", "0", value(&n)}, {"n", "", "0", value(&n)}}),
               hq::Error);
  EXPECT_THROW(FlagTable({{"help", "", nullptr, value(&n)}}), hq::Error);
}

TEST(CliHelpersTest, SplitCsvDropsEmptyItems) {
  EXPECT_EQ(split_csv("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_csv("").empty());
}

TEST(CliHelpersTest, DevicePresetsResolveByName) {
  EXPECT_EQ(device_preset("k20")->name, gpu::DeviceSpec::tesla_k20().name);
  EXPECT_EQ(device_preset("fermi")->name,
            gpu::DeviceSpec::fermi_single_queue().name);
  EXPECT_EQ(device_preset("single-copy")->name,
            gpu::DeviceSpec::single_copy_engine().name);
  EXPECT_FALSE(device_preset("k40").has_value());
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
  EXPECT_FALSE(json_well_formed("[1 2]"));              // missing comma
  EXPECT_FALSE(json_well_formed("{\"a\" 1}"));          // missing colon
  EXPECT_FALSE(json_well_formed("[nan, inf]"));         // not JSON numbers
  EXPECT_FALSE(json_well_formed("[1] [2]"));            // two documents
  EXPECT_TRUE(json_well_formed("{\"a\": [-0.5e+3, true, null, \"\\u00e9\"]}"));
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
