// Pinned trace digests for every heterogeneous application pair at the
// paper's full concurrency point (NA = NS = 32), with and without the
// memory-sync transfer mode. One constant per (pair, mode); any change to
// application op streams, device timing, or schedule expansion moves at
// least one of them. Update the table only for intentional model changes
// (and say so in the commit message).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "common/hash.hpp"
#include "trace/ascii_timeline.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace hq {
namespace {

struct GoldenPair {
  const char* x;
  const char* y;
  std::uint64_t default_digest;
  std::uint64_t memsync_digest;
};

// NA=NS=32, NaiveFifo, seed 42, timing config — the bench::run_pair recipe.
constexpr GoldenPair kGolden[] = {
    {"gaussian", "nn", 0x33946b992e936468ULL, 0x01698b9bea03da5eULL},
    {"gaussian", "needle", 0xab8e3d89e059dab0ULL, 0x33c2201895dca60cULL},
    {"gaussian", "srad", 0xb9002409b18c5af6ULL, 0x67e0c6c5040fb398ULL},
    {"nn", "needle", 0xd8ee0dbb27553fc0ULL, 0xc9e8663a16f64c23ULL},
    {"nn", "srad", 0x1758d88002996a1fULL, 0x43a48f5f67982ab8ULL},
    {"needle", "srad", 0x34b0f4e33d596379ULL, 0x3f080a982f6eb060ULL},
};

std::uint64_t digest_for(const bench::Pair& pair, bool memory_sync,
                         bool collect_telemetry = false) {
  const auto result =
      bench::run_pair(pair, 32, 32, fw::Order::NaiveFifo, memory_sync,
                      /*chunk_bytes=*/0, /*shuffle_seed=*/42,
                      /*device=*/nullptr, collect_telemetry);
  return trace::digest(*result.trace);
}

TEST(GoldenPairDigestsTest, AllSixPairsDefaultMode) {
  for (const GoldenPair& g : kGolden) {
    EXPECT_EQ(digest_for({g.x, g.y}, false), g.default_digest)
        << "{" << g.x << ", " << g.y << "} default";
  }
}

TEST(GoldenPairDigestsTest, AllSixPairsMemorySyncMode) {
  for (const GoldenPair& g : kGolden) {
    EXPECT_EQ(digest_for({g.x, g.y}, true), g.memsync_digest)
        << "{" << g.x << ", " << g.y << "} memsync";
  }
}

TEST(GoldenPairDigestsTest, TelemetryObserverIsZeroPerturbation) {
  // The hq_obs telemetry observer is passive: attaching it must leave every
  // pinned digest bit-identical, in both transfer modes. This is the
  // zero-perturbation contract of src/obs/telemetry.hpp, proven against the
  // same constants the perturbation-free runs are pinned to.
  for (const GoldenPair& g : kGolden) {
    EXPECT_EQ(digest_for({g.x, g.y}, false, /*collect_telemetry=*/true),
              g.default_digest)
        << "{" << g.x << ", " << g.y << "} default + telemetry";
    EXPECT_EQ(digest_for({g.x, g.y}, true, /*collect_telemetry=*/true),
              g.memsync_digest)
        << "{" << g.x << ", " << g.y << "} memsync + telemetry";
  }
}

TEST(GoldenPairDigestsTest, FaultInjectorZeroRateIsZeroPerturbation) {
  // Attaching the fault injector with an enabled all-zero-rate plan must
  // leave every pinned digest bit-identical: a zero-rate plan never draws
  // and never emits, so the device sees exactly the fault-free event
  // sequence. This is the zero-perturbation contract of src/fault/fault.hpp.
  const fault::FaultPlan zero = fault::FaultPlan::zero();
  for (const GoldenPair& g : kGolden) {
    const auto default_run =
        bench::run_pair({g.x, g.y}, 32, 32, fw::Order::NaiveFifo, false,
                        /*chunk_bytes=*/0, /*shuffle_seed=*/42,
                        /*device=*/nullptr, /*collect_telemetry=*/false, &zero);
    EXPECT_EQ(trace::digest(*default_run.trace), g.default_digest)
        << "{" << g.x << ", " << g.y << "} default + zero-rate injector";
    EXPECT_EQ(default_run.degraded.stats.total(), 0u);
    const auto memsync_run =
        bench::run_pair({g.x, g.y}, 32, 32, fw::Order::NaiveFifo, true,
                        /*chunk_bytes=*/0, /*shuffle_seed=*/42,
                        /*device=*/nullptr, /*collect_telemetry=*/false, &zero);
    EXPECT_EQ(trace::digest(*memsync_run.trace), g.memsync_digest)
        << "{" << g.x << ", " << g.y << "} memsync + zero-rate injector";
    EXPECT_EQ(memsync_run.degraded.stats.total(), 0u);
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  Fnv1a64 h;
  for (const char c : bytes) h.mix_byte(static_cast<std::uint8_t>(c));
  return h.value();
}

// Renderer goldens: the FNV-1a of the Chrome-trace JSON and of the ASCII
// timeline of the {gaussian, nn} run above. The trace digest covers the
// recorded spans; these cover the bytes each exporter reads out of the
// recorder, so a change to span storage that alters what a reader sees
// (a time, a lane, a name, the order) fails here even if it slipped past
// the digest. The Chrome pins were re-pinned when span ts/dur moved to the
// shortest round-trip form (they had been written to 6 significant digits).
constexpr std::uint64_t kPinnedChromeTraceFnv = 0xa7cf786943e5439bULL;
constexpr std::uint64_t kPinnedChromeTraceMemsyncFnv = 0x7bb6a52b8115530cULL;
constexpr std::uint64_t kPinnedAsciiTimelineFnv = 0x765b3818d8131506ULL;
constexpr std::uint64_t kPinnedAsciiTimelineMemsyncFnv = 0x886d5d42d9aa318cULL;

TEST(GoldenPairDigestsTest, TraceRenderersArePinnedByteForByte) {
  for (const bool memory_sync : {false, true}) {
    const auto result = bench::run_pair({"gaussian", "nn"}, 32, 32,
                                        fw::Order::NaiveFifo, memory_sync);
    const std::uint64_t chrome = fnv1a(trace::chrome_trace_json(*result.trace));
    const std::uint64_t ascii =
        fnv1a(trace::render_ascii_timeline(*result.trace));
    EXPECT_EQ(chrome, memory_sync ? kPinnedChromeTraceMemsyncFnv
                                  : kPinnedChromeTraceFnv)
        << std::hex << "Chrome trace bytes moved (memsync " << memory_sync
        << "): 0x" << chrome;
    EXPECT_EQ(ascii, memory_sync ? kPinnedAsciiTimelineMemsyncFnv
                                 : kPinnedAsciiTimelineFnv)
        << std::hex << "ASCII timeline bytes moved (memsync " << memory_sync
        << "): 0x" << ascii;
  }
}

TEST(GoldenPairDigestsTest, ModesAndPairsAreDistinguishable) {
  // The 12 golden digests must be pairwise distinct: if two scenarios ever
  // hash alike, the digest has stopped discriminating and the table above
  // is no longer a meaningful fingerprint.
  std::vector<std::uint64_t> all;
  for (const GoldenPair& g : kGolden) {
    all.push_back(g.default_digest);
    all.push_back(g.memsync_digest);
  }
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "duplicate golden digest";
}

}  // namespace
}  // namespace hq
