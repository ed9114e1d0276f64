// Test helper for the inert-knob checks: a knob that is off must leave a
// fleet run's behaviour unchanged, but the report's config echo still shows
// its value. Copying the echo from the baseline report lets a test compare
// every other byte of the two reports.
#pragma once

#include "fleet/report.hpp"

namespace hq::fleet::testing {

/// `report` with the fault-domain and integrity config echo of `baseline`.
inline FleetReport with_config_echo_of(FleetReport report,
                                       const FleetReport& baseline) {
  report.hedging = baseline.hedging;
  report.failover_budget = baseline.failover_budget;
  report.integrity_policy = baseline.integrity_policy;
  report.spotcheck_rate = baseline.spotcheck_rate;
  report.sdc_blocklist_threshold = baseline.sdc_blocklist_threshold;
  return report;
}

}  // namespace hq::fleet::testing
