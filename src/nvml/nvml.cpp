#include "nvml/nvml.hpp"

#include <algorithm>
#include <cmath>

namespace hq::nvml {
std::span<const codec::Field<SensorOptions>> codec_fields(
    const SensorOptions&) {
  using O = SensorOptions;
  static constexpr auto kFields = codec::table<O>({
      codec::row<&O::filter_alpha>("filter-alpha"),
      codec::row<&O::noise_stddev>("noise-stddev"),
      codec::row<&O::quantization>("quantization"),
      codec::row<&O::seed>("seed"),
  });
  return kFields;
}

PowerSensor::PowerSensor(sim::Simulator& sim, const gpu::Device& device,
                         SensorOptions options)
    : sim_(sim), device_(device), options_(options), rng_(options.seed) {
  HQ_CHECK(options_.filter_alpha > 0.0 && options_.filter_alpha <= 1.0);
  HQ_CHECK(options_.quantization >= 0.0);
}

Watts PowerSensor::read() {
  const TimeNs now = sim_.now();
  ++reads_;
  if (!primed_) {
    primed_ = true;
    last_read_time_ = now;
    last_energy_ = device_.energy();
    filtered_ = device_.instantaneous_power();
  } else if (now > last_read_time_) {
    const Joules energy = device_.energy();
    const double window_avg =
        (energy - last_energy_) / to_seconds(now - last_read_time_);
    filtered_ += options_.filter_alpha * (window_avg - filtered_);
    last_read_time_ = now;
    last_energy_ = energy;
  }
  double value = filtered_ + rng_.next_gaussian() * options_.noise_stddev;
  if (options_.quantization > 0.0) {
    value = std::round(value / options_.quantization) * options_.quantization;
  }
  return std::max(value, 0.0);
}

ManagementLibrary::ManagementLibrary(sim::Simulator& sim,
                                     const gpu::Device& device,
                                     SensorOptions sensor_options)
    : sim_(sim), device_(device), sensor_(sim, device, sensor_options) {}

unsigned int ManagementLibrary::power_usage_mw() {
  return static_cast<unsigned int>(std::lround(sensor_.read() * 1000.0));
}

Watts ManagementLibrary::power_usage_watts() { return sensor_.read(); }

double ManagementLibrary::utilization_gpu() {
  const TimeNs now = sim_.now();
  const double busy = device_.busy_seconds();
  double util = 0.0;
  if (now > util_last_time_) {
    util = (busy - util_last_busy_) / to_seconds(now - util_last_time_) * 100.0;
  }
  util_last_time_ = now;
  util_last_busy_ = busy;
  return std::clamp(util, 0.0, 100.0);
}

}  // namespace hq::nvml
