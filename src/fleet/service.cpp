// serve::Service::run: a Service is a 1-device fleet (see serve/service.hpp).
#include "serve/service.hpp"

#include "common/check.hpp"
#include "fleet/fleet.hpp"

namespace hq::serve {

ServeResult Service::run() {
  config_.validate();
  HQ_CHECK_MSG(!config_.fault_plan.any_down_transitions(),
               "serve config: crash/flap faults take the device down, and a "
               "single device has nowhere to fail its jobs over to; run a "
               "fleet instead (hqserve --devices N)");

  fleet::FleetConfig fleet_config;
  fleet_config.base = config_;
  fleet::FleetResult fleet = fleet::FleetService(std::move(fleet_config)).run();
  fleet::FleetDeviceResult& device = fleet.devices.front();

  ServeResult result;
  result.report = std::move(device.report);
  result.accounting = std::move(device.accounting);
  result.jobs = std::move(fleet.jobs);
  result.trace = std::move(device.trace);
  result.metrics = std::move(device.metrics);
  result.fault_stats = device.fault_stats;
  result.controller_transitions = std::move(device.controller_transitions);
  return result;
}

}  // namespace hq::serve
