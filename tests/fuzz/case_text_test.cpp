// Serving fuzz cases as text: the seed -> config mapping is pinned, every
// drawn config survives its codec text, and the committed failure cases in
// tests/fuzz/corpus replay from their text alone. A case file is named
// <check>-<case seed>.txt and holds the config's codec text, as a failing
// run prints it. HQ_FUZZ_CORPUS_DIR is that directory, set by CMake.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace hq::check {
namespace {

/// FNV-1a over the concatenated codec text of `draw(seed)` for the first
/// 64 case seeds of master seed 1.
template <class Draw>
std::uint64_t text_digest(Draw draw) {
  Rng master(1);
  Fnv1a64 hash;
  for (int i = 0; i < 64; ++i) {
    for (const char c : codec::to_text(draw(master.next_u64()))) {
      hash.mix_byte(static_cast<std::uint8_t>(c));
    }
  }
  return hash.value();
}

TEST(FuzzCaseTextTest, SeedsDrawThePinnedConfigs) {
  // Pinned from the generators before the serving checks took configs.
  EXPECT_EQ(text_digest(draw_serve_case), 0x2829995d1bafde67ull);
  EXPECT_EQ(text_digest(draw_fleet_case), 0x3a93233a1abb1c50ull);
  EXPECT_EQ(text_digest([](std::uint64_t seed) {
              return draw_chaos_case(seed, 0.5);
            }),
            0x1fd176b1ef7c212full);
  EXPECT_EQ(text_digest([](std::uint64_t seed) {
              return draw_sdc_case(seed, 0.5);
            }),
            0x304539a27de861a4ull);
}

TEST(FuzzCaseTextTest, LayerResetGivesTheFleetCase) {
  // The inert-layer oracle's baseline is fleet_case_of(layered config).
  Rng master(1);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t seed = master.next_u64();
    const std::string fleet_text = codec::to_text(draw_fleet_case(seed));
    for (const double rate : {0.5, 1.0}) {
      EXPECT_EQ(codec::to_text(fleet_case_of(draw_chaos_case(seed, rate))),
                fleet_text)
          << "chaos seed " << seed;
      EXPECT_EQ(codec::to_text(fleet_case_of(draw_sdc_case(seed, rate))),
                fleet_text)
          << "sdc seed " << seed;
    }
  }
}

TEST(FuzzCaseTextTest, DrawnConfigsRoundTripThroughText) {
  Rng master(1);
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t seed = master.next_u64();
    const std::string serve_text = codec::to_text(draw_serve_case(seed));
    const serve::ServiceConfig serve = parse_serve_case(serve_text);
    EXPECT_EQ(codec::to_text(serve), serve_text);
    for (const serve::ClassSpec& klass : serve.classes) {
      EXPECT_NE(klass.item.factory, nullptr);
    }
    const std::string sdc_text = codec::to_text(draw_sdc_case(seed, 1.0));
    EXPECT_EQ(codec::to_text(parse_fleet_case(sdc_text)), sdc_text);
  }
  EXPECT_THROW(parse_fleet_case("base={classes=[{type=\"blur\"}]}"),
               hq::Error);
  EXPECT_THROW(parse_serve_case("num-streams=x"), hq::Error);
}

TEST(FuzzCaseTextTest, CommittedCasesReplayFromText) {
  namespace fs = std::filesystem;
  int replayed = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(HQ_FUZZ_CORPUS_DIR)) {
    const std::string name = entry.path().stem().string();
    const std::size_t dash = name.find('-');
    ASSERT_NE(dash, std::string::npos) << name;
    const std::string check = name.substr(0, dash);
    const std::uint64_t seed = std::stoull(name.substr(dash + 1));
    std::ifstream in(entry.path());
    std::string text;
    std::getline(in, text);
    std::vector<std::string> problems;
    if (check == "serve") {
      problems = Fuzzer::check_serve(seed, parse_serve_case(text));
    } else if (check == "fleet") {
      problems = Fuzzer::check_fleet(seed, parse_fleet_case(text));
    } else if (check == "chaos") {
      problems = Fuzzer::check_chaos(seed, parse_fleet_case(text));
    } else {
      ASSERT_EQ(check, "sdc") << name;
      problems = Fuzzer::check_sdc(seed, parse_fleet_case(text));
    }
    EXPECT_TRUE(problems.empty()) << name << ": " << problems.front();
    ++replayed;
  }
  // chaos-17202925169076741841: the failover shed-back case (see
  // FleetChaosFuzzTest.FailoverShedBackCaseIsClean), from its text.
  EXPECT_GE(replayed, 1);
}

}  // namespace
}  // namespace hq::check
