// One sweep-style zero-perturbation gate for the whole simulation surface.
//
// Folds the trace digests of all twelve heterogeneous pair scenarios
// (six pairings x default/memsync at NA = NS = 16), the streaming golden
// scenario, and a deterministic serving scenario into a single
// FNV-1a fingerprint, asserted against one pinned constant. Any
// perturbation anywhere — event ordering, span recording, name interning,
// power bookkeeping, allocation laziness — moves the combined value.
//
// The per-scenario goldens live in golden_pair_digests_test.cpp (NA=NS=32)
// and the serve/streaming suites; this test is the cheap whole-surface
// canary a refactor runs first. Update the constant only for intentional
// model changes, never to silence an accidental diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "bench/common.hpp"
#include "common/hash.hpp"
#include "serve/service.hpp"
#include "tests/hyperq/synthetic_app.hpp"
#include "trace/trace.hpp"

namespace hq {
namespace {

using fw::testing::SyntheticApp;

// Pinned 2026-08 on the post-overhaul tree; see header comment.
constexpr std::uint64_t kPinnedCombinedDigest = 0x24c2fc138e23c24fULL;

/// The streaming golden scenario: every overload feature off, no metrics.
serve::ServiceConfig streaming_config() {
  serve::ServiceConfig config;
  config.window = 20 * kMillisecond;
  config.mean_interarrival = kMillisecond;
  config.num_streams = 8;
  config.collect_metrics = false;
  SyntheticApp::Spec spec;
  spec.num_kernels = 3;
  spec.block_duration = 30 * kMicrosecond;
  config.classes.push_back(
      {fw::WorkloadItem{"synthetic",
                        [spec] { return std::make_unique<SyntheticApp>(spec); }},
       0});
  return config;
}

serve::ServiceConfig serve_config() {
  serve::ServiceConfig config;
  config.window = 10 * kMillisecond;
  config.mean_interarrival = 100 * kMicrosecond;
  config.num_streams = 2;
  config.max_inflight = 2;
  SyntheticApp::Spec spec;
  spec.num_kernels = 3;
  spec.block_duration = 30 * kMicrosecond;
  config.classes.push_back(
      {fw::WorkloadItem{"synthetic",
                        [spec] { return std::make_unique<SyntheticApp>(spec); }},
       0});
  return config;
}

TEST(ZeroPerturbationTest, CombinedSurfaceDigestIsPinned) {
  Fnv1a64 combined;

  // All six pairings, default then memsync, at the sweep's NA = NS = 16.
  for (const bool memsync : {false, true}) {
    for (const auto& pair : bench::hetero_pairs()) {
      const auto result =
          bench::run_pair(pair, 16, 16, fw::Order::NaiveFifo, memsync);
      combined.mix_u64(trace::digest(*result.trace));
      combined.mix_u64(result.events_processed);
    }
  }

  // Streaming and serving layers on top of the same simulator.
  combined.mix_u64(
      serve::Service(streaming_config()).run().report.trace_digest);
  combined.mix_u64(serve::Service(serve_config()).run().report.trace_digest);

  EXPECT_EQ(combined.value(), kPinnedCombinedDigest)
      << std::hex << "combined surface digest moved: 0x" << combined.value();
}

}  // namespace
}  // namespace hq
