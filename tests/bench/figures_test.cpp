// The figure table (bench/figures.hpp) in Tier-1. Every row runs at smoke
// scale: each of its claims must hold, and its text must be byte-identical
// at 1 and 4 jobs. The rows whose paper-scale runs take milliseconds are
// also pinned at paper scale: the FNV-1a of each one's text is the hash of
// the stdout of the standalone binary it replaced. The PaperShapesTest
// cases name the claim rows that took over their assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "bench/figures.hpp"
#include "common/hash.hpp"

namespace hq::bench {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  Fnv1a64 h;
  for (char c : text) h.mix_byte(static_cast<std::uint8_t>(c));
  return h.value();
}

class FigureTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FigureTest, ClaimsHoldAndTextIsJobCountInvariantAtSmokeScale) {
  const Figure* figure = find_figure(GetParam());
  ASSERT_NE(figure, nullptr);
  const FigureRun serial = figure->run(Scale::smoke(), 1);
  const FigureRun parallel = figure->run(Scale::smoke(), 4);
  for (const std::string& claim : serial.failed) {
    ADD_FAILURE() << "claim failed: " << claim << "\n" << serial.text;
  }
  EXPECT_FALSE(serial.text.empty());
  EXPECT_TRUE(serial.text == parallel.text)
      << "--jobs 1:\n" << serial.text << "--jobs 4:\n" << parallel.text;
}

std::vector<std::string> figure_ids() {
  std::vector<std::string> ids;
  for (const Figure& f : figures()) ids.push_back(f.id);
  return ids;
}

INSTANTIATE_TEST_SUITE_P(Figures, FigureTest,
                         ::testing::ValuesIn(figure_ids()),
                         [](const auto& row) { return row.param; });

TEST(FigurePinsTest, FastRowsPrintTheirPaperScalePins) {
  const struct {
    const char* id;
    std::uint64_t fnv;
  } kPins[] = {
      {"table1", 0x14f71a293c77ef60}, {"table3", 0xfe225011bcacf4ff},
      {"fig1", 0xac891812cab5333d},   {"fig2", 0xf3f7bac99e5333aa},
      {"fig3", 0xe121d4f494c81897},   {"fig5", 0xa6a2353278c65f65},
      {"ablation_priorities", 0xe2562a1856b595f4},
  };
  for (const auto& pin : kPins) {
    const FigureRun run = find_figure(pin.id)->run(Scale::paper(), 1);
    EXPECT_EQ(fnv1a(run.text), pin.fnv)
        << pin.id << std::hex << " 0x" << fnv1a(run.text) << "\n"
        << run.text;
    EXPECT_TRUE(run.failed.empty()) << pin.id;
  }
}

/// Runs row `id` at smoke scale and checks the claims whose text contains
/// each of `phrases` (each phrase names exactly one claim of the row).
void expect_claims_hold(const char* id,
                        std::initializer_list<const char*> phrases) {
  const Figure* figure = find_figure(id);
  ASSERT_NE(figure, nullptr) << id;
  const FigureRun run = figure->run(Scale::smoke(), 4);
  for (const char* phrase : phrases) {
    const auto has_phrase = [phrase](const std::string& claim) {
      return claim.find(phrase) != std::string::npos;
    };
    ASSERT_EQ(std::count_if(figure->claims.begin(), figure->claims.end(),
                            has_phrase),
              1)
        << id << ": " << phrase;
    EXPECT_FALSE(std::any_of(run.failed.begin(), run.failed.end(), has_phrase))
        << id << ": claim failed: " << phrase << "\n" << run.text;
  }
}

TEST(PaperShapesTest, FullConcurrencyBeatsSerialForAllPairs) {
  expect_claims_hold("fig4", {"beats serialized execution for every pair and NA"});
}

TEST(PaperShapesTest, HalfConcurrencyCapturesMostOfTheGain) {
  expect_claims_hold("fig4", {"half concurrency gains"});
}

TEST(PaperShapesTest, TinyKernelPairsGainMost) {
  expect_claims_hold("headline", {"tiny-kernel pairs gain most"});
}

TEST(PaperShapesTest, InterleavingInflatesEffectiveLatency) {
  expect_claims_hold("fig6", {"past 4x the expected"});
}

TEST(PaperShapesTest, MemorySyncRestoresExpectedLatency) {
  expect_claims_hold("fig6", {"lowers the mean HtoD latency below",
                              "at most its own service time"});
}

TEST(PaperShapesTest, MemorySyncDoesNotHurtAtPaperScale) {
  expect_claims_hold("headline", {"lengthens the full-concurrent makespan"});
}

TEST(PaperShapesTest, OrderingChangesMakespan) {
  expect_claims_hold("fig7", {"order matters for {needle, srad}"});
}

TEST(PaperShapesTest, ConcurrencySavesEnergyDespiteHigherPower) {
  expect_claims_hold("fig4", {"draws more power than serialized"});
}

TEST(PaperShapesTest, PowerSublinearInConcurrency) {
  expect_claims_hold("fig4", {"raises power by less than 1.3x"});
}

TEST(PaperShapesTest, HyperQNoWorseThanFermiEverywhere) {
  expect_claims_hold("ablation_fermi_vs_hyperq", {"beats Fermi mode"});
}

TEST(PaperShapesTest, EveryConfigurationIsDeterministic) {
  // {gaussian, needle} with memory sync off and on, rendered twice serially
  // and once over 4 jobs. (Every row's 1-vs-4-jobs identity is checked by
  // FigureTest above.)
  const Figure* fig2 = find_figure("fig2");
  const std::string text = fig2->run(Scale::smoke(), 1).text;
  EXPECT_TRUE(text == fig2->run(Scale::smoke(), 1).text);
  EXPECT_TRUE(text == fig2->run(Scale::smoke(), 4).text);
}

}  // namespace
}  // namespace hq::bench
