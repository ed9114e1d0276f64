// Golden fleet digests: two fixed fleet scenarios (4-device homogeneous,
// 2+2 heterogeneous) pinned by their FleetReport digests, byte-identity of
// those scenarios when sharded across 1/2/8 jobs, and a zero-perturbation
// re-check that linking hq_fleet into a binary leaves the whole-surface
// simulation digest untouched.
//
// Update the pinned constants only for intentional model changes, never to
// silence an accidental diff — a moved digest means the fleet scheduler,
// the serving layer, or the simulator underneath changed behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "common/hash.hpp"
#include "exec/parallel.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "serve/service.hpp"
#include "tests/hyperq/synthetic_app.hpp"
#include "trace/trace.hpp"

namespace hq::fleet {
namespace {

using fw::testing::SyntheticApp;

// Re-pinned 2026-10 for fleet report schema v2, which renders the
// fault-domain and integrity sections for every run.
constexpr std::uint64_t kPinnedHomogeneousDigest = 0x70c928e43781767aULL;
constexpr std::uint64_t kPinnedHeterogeneousDigest = 0xf3bd565f7c28cf7cULL;
// Must equal zero_perturbation_test.cpp's constant: linking hq_fleet can
// not perturb the existing surface.
constexpr std::uint64_t kPinnedCombinedSurfaceDigest = 0x24c2fc138e23c24fULL;

serve::ServiceConfig golden_base() {
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
  config.collect_metrics = false;
  return config;
}

FleetConfig homogeneous_config() {
  FleetConfig config;
  config.base = golden_base();
  config.resize_homogeneous(4);
  config.placement = PlacementPolicy::LeastLoaded;
  return config;
}

FleetConfig heterogeneous_config() {
  FleetConfig config;
  config.base = golden_base();
  config.devices = {
      gpu::DeviceSpec::tesla_k20(), gpu::DeviceSpec::tesla_k20(),
      gpu::DeviceSpec::single_copy_engine(),
      gpu::DeviceSpec::single_copy_engine()};
  config.placement = PlacementPolicy::CopyAware;
  config.work_stealing = true;
  return config;
}

TEST(GoldenFleetTest, HomogeneousFourDeviceDigestIsPinned) {
  const FleetResult result = FleetService(homogeneous_config()).run();
  EXPECT_EQ(fleet_report_digest(result.report), kPinnedHomogeneousDigest)
      << std::hex << "digest moved: 0x"
      << fleet_report_digest(result.report);
}

TEST(GoldenFleetTest, HeterogeneousTwoPlusTwoDigestIsPinned) {
  const FleetResult result = FleetService(heterogeneous_config()).run();
  EXPECT_EQ(fleet_report_digest(result.report), kPinnedHeterogeneousDigest)
      << std::hex << "digest moved: 0x"
      << fleet_report_digest(result.report);
}

TEST(GoldenFleetTest, GoldenScenariosAreByteIdenticalAcrossJobCounts) {
  // Both golden scenarios sharded over 1, 2 and 8 workers: the report
  // bytes (and hence digests) must never depend on the job count.
  const auto run_scenario = [](std::size_t i) {
    const FleetConfig config =
        i % 2 == 0 ? homogeneous_config() : heterogeneous_config();
    return fleet_report_json(FleetService(config).run().report);
  };
  const auto serial = exec::parallel_map_jobs(1, 4, run_scenario);
  for (const int jobs : {2, 8}) {
    const auto threaded = exec::parallel_map_jobs(jobs, 4, run_scenario);
    ASSERT_EQ(threaded.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(threaded[i], serial[i]) << "jobs=" << jobs << " i=" << i;
    }
  }
}

/// Digest of the run of `config`, with the config echo of `baseline`'s run:
/// inert knobs leave behaviour unchanged, and the echo shows them.
std::uint64_t echoed_digest(const FleetConfig& config,
                            const FleetConfig& baseline) {
  return fleet_report_digest(
      with_config_echo_of(FleetService(config).run().report,
                          FleetService(baseline).run().report));
}

TEST(GoldenFleetTest, InertFaultDomainKnobsKeepPinnedDigests) {
  // The fault-domain layer's zero-perturbation contract: with no lifecycle
  // faults and hedging off, the fault-domain knobs change no behaviour —
  // the pinned digests hold, apart from the config echo, even with
  // all-disabled per-device plans supplied and every inert knob moved off
  // its default.
  FleetConfig homogeneous = homogeneous_config();
  homogeneous.device_fault_plans.assign(4, fault::FaultPlan{});
  homogeneous.failover_budget = 0;
  homogeneous.hedge_threshold = 7.5;
  homogeneous.hedge_min_samples = 1;
  const std::uint64_t a = echoed_digest(homogeneous, homogeneous_config());
  EXPECT_EQ(a, kPinnedHomogeneousDigest)
      << std::hex << "digest moved: 0x" << a;

  FleetConfig heterogeneous = heterogeneous_config();
  heterogeneous.failover_budget = 9;
  const std::uint64_t b = echoed_digest(heterogeneous, heterogeneous_config());
  EXPECT_EQ(b, kPinnedHeterogeneousDigest)
      << std::hex << "digest moved: 0x" << b;
}

TEST(GoldenFleetTest, InertIntegrityKnobsKeepPinnedDigests) {
  // The integrity pipeline's zero-perturbation contract: with the Trust
  // policy and no SDC faults configured, the integrity knobs change no
  // behaviour — the pinned digests hold, apart from the config echo, even
  // with the knobs moved off their defaults and corruption-free per-device
  // plans supplied.
  FleetConfig homogeneous = homogeneous_config();
  homogeneous.integrity = IntegrityPolicy::Trust;
  homogeneous.spotcheck_rate = 0.9;
  homogeneous.sdc_blocklist_threshold = 0.25;
  homogeneous.sdc_score_alpha = 0.9;
  homogeneous.device_fault_plans.assign(4, fault::FaultPlan{});
  const std::uint64_t a = echoed_digest(homogeneous, homogeneous_config());
  EXPECT_EQ(a, kPinnedHomogeneousDigest)
      << std::hex << "digest moved: 0x" << a;

  FleetConfig heterogeneous = heterogeneous_config();
  heterogeneous.spotcheck_rate = 0.0;
  heterogeneous.sdc_blocklist_threshold = 1.0;
  const std::uint64_t b = echoed_digest(heterogeneous, heterogeneous_config());
  EXPECT_EQ(b, kPinnedHeterogeneousDigest)
      << std::hex << "digest moved: 0x" << b;
}

TEST(GoldenFleetTest, LinkingFleetLeavesWholeSurfaceDigestUnchanged) {
  // Replicates zero_perturbation_test's combined digest from a binary that
  // links (and above, has exercised) hq_fleet: the fleet layer must be a
  // pure addition with zero perturbation of existing behavior.
  Fnv1a64 combined;
  for (const bool memsync : {false, true}) {
    for (const auto& pair : bench::hetero_pairs()) {
      const auto result =
          bench::run_pair(pair, 16, 16, fw::Order::NaiveFifo, memsync);
      combined.mix_u64(trace::digest(*result.trace));
      combined.mix_u64(result.events_processed);
    }
  }

  serve::ServiceConfig streaming;
  streaming.window = 20 * kMillisecond;
  streaming.mean_interarrival = kMillisecond;
  streaming.num_streams = 8;
  streaming.collect_metrics = false;
  SyntheticApp::Spec spec;
  spec.num_kernels = 3;
  spec.block_duration = 30 * kMicrosecond;
  streaming.classes.push_back(
      {fw::WorkloadItem{"synthetic",
                        [spec] { return std::make_unique<SyntheticApp>(spec); }},
       0});
  combined.mix_u64(serve::Service(streaming).run().report.trace_digest);

  serve::ServiceConfig serving = golden_base();
  serving.collect_metrics = true;  // match the original scenario exactly
  combined.mix_u64(serve::Service(serving).run().report.trace_digest);

  EXPECT_EQ(combined.value(), kPinnedCombinedSurfaceDigest)
      << std::hex << "combined surface digest moved: 0x" << combined.value();
}

}  // namespace
}  // namespace hq::fleet
