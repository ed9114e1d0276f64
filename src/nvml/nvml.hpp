// Simulated NVIDIA Management Library (NVML).
//
// The paper's PowerMonitor class "links to the NVML API and logs GPU power
// draw readings from the on-board sensor" at a 15 ms period (oversampled at
// 66.7 Hz to reduce noise). This module reproduces the relevant behaviour of
// that sensor on the simulated device:
//   * the reading is a *windowed average* of true board power since the
//     previous query (the on-board sensor integrates, it does not sample
//     instantaneously),
//   * successive readings are low-pass filtered (EMA),
//   * deterministic pseudo-random gaussian noise and quantization model the
//     measurement error the paper oversamples to suppress.
#pragma once

#include <span>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "gpusim/device.hpp"
#include "sim/simulator.hpp"

namespace hq::nvml {

struct SensorOptions {
  /// EMA weight applied to each new windowed average (1.0 = no filtering).
  double filter_alpha = 0.4;
  /// Standard deviation of additive gaussian read noise, in watts.
  double noise_stddev = 0.8;
  /// Reading granularity in watts (NVML reports milliwatts, but the K20
  /// sensor's effective resolution is far coarser).
  double quantization = 0.25;
  /// Seed for the deterministic noise stream.
  std::uint64_t seed = 0x5eed0f0da7a5eedull;
};

/// The options' codec table (common/codec.hpp).
std::span<const codec::Field<SensorOptions>> codec_fields(
    const SensorOptions&);

/// On-board power sensor model. Reads are lazy: each read averages the true
/// power over the window since the previous read and folds it into the
/// filtered state.
class PowerSensor {
 public:
  PowerSensor(sim::Simulator& sim, const gpu::Device& device,
              SensorOptions options = {});

  /// Current sensor reading in watts.
  Watts read();

  /// Number of reads served (diagnostic).
  std::uint64_t reads() const { return reads_; }

 private:
  sim::Simulator& sim_;
  const gpu::Device& device_;
  SensorOptions options_;
  Rng rng_;

  bool primed_ = false;
  TimeNs last_read_time_ = 0;
  Joules last_energy_ = 0.0;
  double filtered_ = 0.0;
  std::uint64_t reads_ = 0;
};

/// NVML-style device query facade (nvmlDeviceGetPowerUsage and friends).
class ManagementLibrary {
 public:
  ManagementLibrary(sim::Simulator& sim, const gpu::Device& device,
                    SensorOptions sensor_options = {});

  /// Sensor power reading in milliwatts, like nvmlDeviceGetPowerUsage.
  unsigned int power_usage_mw();
  /// Sensor power reading in watts.
  Watts power_usage_watts();
  /// Exact cumulative board energy (ground truth, used for energy metrics).
  Joules total_energy() const { return device_.energy(); }
  /// GPU utilization percentage over the window since the last call, like
  /// nvmlDeviceGetUtilizationRates().gpu (fraction of time at least one
  /// kernel was resident).
  double utilization_gpu();
  const std::string& device_name() const { return device_.spec().name; }

 private:
  sim::Simulator& sim_;
  const gpu::Device& device_;
  PowerSensor sensor_;
  TimeNs util_last_time_ = 0;
  double util_last_busy_ = 0.0;
};

}  // namespace hq::nvml
