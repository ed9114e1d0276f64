// The paper's heterogeneous pair recipe: the six pairings, the timing-only
// harness config and one pair run. The figure table (figures.hpp) and the
// golden-digest tests share it.
#pragma once

#include <string>
#include <vector>

#include "hyperq/harness.hpp"
#include "hyperq/schedule.hpp"
#include "rodinia/registry.hpp"

namespace hq::bench {

/// The six heterogeneous pairings of the four ported applications
/// (paper Figure 4 (a)-(f)).
struct Pair {
  std::string x;
  std::string y;
  std::string label() const { return "{" + x + ", " + y + "}"; }
};

inline std::vector<Pair> hetero_pairs() {
  return {{"gaussian", "nn"},   {"gaussian", "needle"}, {"gaussian", "srad"},
          {"nn", "needle"},     {"nn", "srad"},         {"needle", "srad"}};
}

/// Baseline harness configuration for timing studies: paper-size inputs,
/// timing-only (non-functional) mode, quiet sensor.
inline fw::HarnessConfig timing_config(int num_streams) {
  fw::HarnessConfig config;
  config.num_streams = num_streams;
  config.functional = false;
  config.sensor.noise_stddev = 0.0;
  config.sensor.quantization = 0.0;
  return config;
}

/// Runs a heterogeneous pair workload: `na` applications split evenly
/// between the two types, launched in the given order over `ns` streams.
inline fw::HarnessResult run_pair(const Pair& pair, int na, int ns,
                                  fw::Order order = fw::Order::NaiveFifo,
                                  bool memory_sync = false,
                                  Bytes chunk_bytes = 0,
                                  std::uint64_t shuffle_seed = 42,
                                  const gpu::DeviceSpec* device = nullptr,
                                  bool collect_telemetry = false,
                                  const fault::FaultPlan* fault_plan = nullptr) {
  fw::HarnessConfig config = timing_config(ns);
  config.memory_sync = memory_sync;
  config.transfer_chunk_bytes = chunk_bytes;
  config.collect_telemetry = collect_telemetry;
  if (device != nullptr) config.device = *device;
  if (fault_plan != nullptr) config.fault_plan = *fault_plan;

  Rng rng(shuffle_seed);
  const int counts[] = {na / 2, na - na / 2};
  const auto schedule = fw::make_schedule(order, counts, &rng);
  const auto workload = rodinia::build_workload(
      schedule, {pair.x, pair.y}, {rodinia::AppParams{}, rodinia::AppParams{}});
  fw::Harness harness(config);
  return harness.run(workload);
}

}  // namespace hq::bench
