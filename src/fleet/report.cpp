#include "fleet/report.hpp"

#include <ostream>
#include <sstream>

#include "common/hash.hpp"
#include "obs/report.hpp"

namespace hq::fleet {
namespace {

double to_ms(DurationNs ns) {
  return static_cast<double>(ns) / static_cast<double>(kMillisecond);
}

}  // namespace

void render_fleet_report_text(std::ostream& os, const FleetReport& report) {
  os << "fleet report: " << report.workload << "\n";
  os << "  fleet: devices=" << report.num_devices
     << " placement=" << report.placement
     << " copy-penalty=" << obs::format_double(report.copy_penalty)
     << " steal=" << (report.work_stealing ? "on" : "off")
     << " device-breaker=" << (report.device_breaker_enabled ? "on" : "off")
     << " seed=" << report.seed << "\n";
  os << "  jobs: arrived=" << report.arrived << " admitted=" << report.admitted
     << " completed=" << report.completed << " (ok=" << report.completed_ok
     << " late=" << report.completed_late << ")\n";
  os << "  rejected: shed-queue-full=" << report.shed_queue_full
     << " shed-breaker=" << report.shed_breaker
     << " shed-no-device=" << report.shed_no_device
     << " timed-out-queued=" << report.timed_out_queued
     << " quarantined=" << report.quarantined << "\n";
  os << "  movement: requeued=" << report.requeued
     << " stolen=" << report.stolen
     << " device-breaker-trips=" << report.device_breaker_trips
     << " probes=" << report.device_breaker_probes
     << " rejected=" << report.device_breaker_rejected << "\n";
  os << "  fault-domains: hedging=" << (report.hedging ? "on" : "off")
     << " failover-budget=" << report.failover_budget
     << " failed-over=" << report.failed_over
     << " shed-failover-exhausted=" << report.shed_failover_exhausted
     << " hedges=" << report.hedges_launched
     << " hedge-wins=" << report.hedge_wins
     << " hedges-cancelled=" << report.hedges_cancelled
     << " attempts-cancelled=" << report.attempts_cancelled << "\n";
  os << "  integrity: policy=" << report.integrity_policy
     << " spotcheck-rate=" << obs::format_double(report.spotcheck_rate)
     << " blocklist-threshold="
     << obs::format_double(report.sdc_blocklist_threshold)
     << " sdc-injected=" << report.sdc_injected
     << " sdc-detected=" << report.sdc_detected
     << " sdc-missed=" << report.sdc_missed
     << " reexecutions=" << report.reexecutions
     << " devices-blocklisted=" << report.devices_blocklisted << "\n";
  os << "  slo: goodput=" << obs::format_double(report.goodput_per_sec)
     << "/s throughput=" << obs::format_double(report.throughput_per_sec)
     << "/s deadline-miss-ratio="
     << obs::format_double(report.deadline_miss_ratio) << "\n";
  os << "  run: total=" << obs::format_double(to_ms(report.total_time))
     << "ms drain=" << obs::format_double(to_ms(report.drain_time))
     << "ms energy=" << obs::format_double(report.energy)
     << "J energy/completed="
     << obs::format_double(report.energy_per_completed) << "J\n";
  os << "  placement-histogram:";
  for (std::size_t d = 0; d < report.devices.size(); ++d) {
    os << " d" << d << "=" << report.devices[d].placed;
  }
  os << "\n";
  for (std::size_t d = 0; d < report.devices.size(); ++d) {
    const FleetDeviceStats& dev = report.devices[d];
    const serve::ServeReport& r = dev.report;
    os << "  device " << d << " (" << dev.name << "): arrived=" << r.arrived
       << " ok=" << r.completed_ok << " late=" << r.completed_late
       << " shed=" << r.shed()
       << " quarantined=" << r.quarantined << " placed=" << dev.placed
       << " requeued=" << dev.requeued_in << "/" << dev.requeued_out
       << " stolen=" << dev.stolen_in << "/" << dev.stolen_out
       << " energy=" << obs::format_double(r.energy) << "J";
    if (!dev.breaker_final_state.empty()) {
      os << " breaker=" << dev.breaker_final_state
         << " trips=" << dev.breaker_trips;
    }
    os << " failed-over=" << dev.failed_over_in << "/" << dev.failed_over_out
       << " hedges=" << dev.hedges_run
       << " cancelled=" << dev.attempts_cancelled
       << " downs=" << dev.lifecycle_downs;
    os << " sdc=" << dev.sdc_injected << "/" << dev.sdc_detected
       << " blamed=" << dev.sdc_blamed
       << " verifications=" << dev.verifications_run
       << " sdc-score=" << obs::format_double(dev.sdc_score);
    if (dev.blocklisted) {
      os << " blocklisted-at-us=" << dev.blocklisted_at / kMicrosecond;
    }
    os << "\n";
  }
}

void write_fleet_report_json(std::ostream& os, const FleetReport& report) {
  os << "{\n";
  os << "  \"schema_version\": " << kFleetReportSchemaVersion << ",\n";

  os << "  \"fleet\": {\n";
  os << "    \"workload\": ";
  obs::write_json_quoted(os, report.workload);
  os << ",\n";
  os << "    \"num_devices\": " << report.num_devices << ",\n";
  os << "    \"placement\": ";
  obs::write_json_quoted(os, report.placement);
  os << ",\n";
  os << "    \"copy_penalty\": " << obs::format_double(report.copy_penalty)
     << ",\n";
  os << "    \"work_stealing\": " << (report.work_stealing ? "true" : "false")
     << ",\n";
  os << "    \"device_breaker\": "
     << (report.device_breaker_enabled ? "true" : "false") << ",\n";
  os << "    \"seed\": " << report.seed << "\n";
  os << "  },\n";

  os << "  \"accounting\": {\n";
  os << "    \"arrived\": " << report.arrived << ",\n";
  os << "    \"admitted\": " << report.admitted << ",\n";
  os << "    \"completed\": " << report.completed << ",\n";
  os << "    \"completed_ok\": " << report.completed_ok << ",\n";
  os << "    \"completed_late\": " << report.completed_late << ",\n";
  os << "    \"shed_queue_full\": " << report.shed_queue_full << ",\n";
  os << "    \"shed_breaker\": " << report.shed_breaker << ",\n";
  os << "    \"shed_no_device\": " << report.shed_no_device << ",\n";
  os << "    \"timed_out_queued\": " << report.timed_out_queued << ",\n";
  os << "    \"quarantined\": " << report.quarantined << ",\n";
  os << "    \"requeued\": " << report.requeued << ",\n";
  os << "    \"stolen\": " << report.stolen << "\n";
  os << "  },\n";

  os << "  \"fault_domains\": {\n";
  os << "    \"hedging\": " << (report.hedging ? "true" : "false") << ",\n";
  os << "    \"failover_budget\": " << report.failover_budget << ",\n";
  os << "    \"shed_failover_exhausted\": " << report.shed_failover_exhausted
     << ",\n";
  os << "    \"failed_over\": " << report.failed_over << ",\n";
  os << "    \"hedges_launched\": " << report.hedges_launched << ",\n";
  os << "    \"hedge_wins\": " << report.hedge_wins << ",\n";
  os << "    \"hedges_cancelled\": " << report.hedges_cancelled << ",\n";
  os << "    \"attempts_cancelled\": " << report.attempts_cancelled << "\n";
  os << "  },\n";

  os << "  \"integrity\": {\n";
  os << "    \"policy\": ";
  obs::write_json_quoted(os, report.integrity_policy);
  os << ",\n";
  os << "    \"spotcheck_rate\": " << obs::format_double(report.spotcheck_rate)
     << ",\n";
  os << "    \"sdc_blocklist_threshold\": "
     << obs::format_double(report.sdc_blocklist_threshold) << ",\n";
  os << "    \"sdc_injected\": " << report.sdc_injected << ",\n";
  os << "    \"sdc_detected\": " << report.sdc_detected << ",\n";
  os << "    \"sdc_missed\": " << report.sdc_missed << ",\n";
  os << "    \"reexecutions\": " << report.reexecutions << ",\n";
  os << "    \"devices_blocklisted\": " << report.devices_blocklisted << "\n";
  os << "  },\n";

  os << "  \"slo\": {\n";
  os << "    \"goodput_per_sec\": "
     << obs::format_double(report.goodput_per_sec) << ",\n";
  os << "    \"throughput_per_sec\": "
     << obs::format_double(report.throughput_per_sec) << ",\n";
  os << "    \"deadline_miss_ratio\": "
     << obs::format_double(report.deadline_miss_ratio) << "\n";
  os << "  },\n";

  os << "  \"run\": {\n";
  os << "    \"total_time_ns\": " << report.total_time << ",\n";
  os << "    \"drain_time_ns\": " << report.drain_time << ",\n";
  os << "    \"energy_j\": " << obs::format_double(report.energy) << ",\n";
  os << "    \"energy_per_completed_j\": "
     << obs::format_double(report.energy_per_completed) << "\n";
  os << "  },\n";

  os << "  \"device_breaker\": {\n";
  os << "    \"trips\": " << report.device_breaker_trips << ",\n";
  os << "    \"probes\": " << report.device_breaker_probes << ",\n";
  os << "    \"rejected\": " << report.device_breaker_rejected << "\n";
  os << "  },\n";

  os << "  \"placement_histogram\": [";
  for (std::size_t d = 0; d < report.devices.size(); ++d) {
    os << report.devices[d].placed
       << (d + 1 < report.devices.size() ? ", " : "");
  }
  os << "],\n";

  os << "  \"devices\": [\n";
  for (std::size_t d = 0; d < report.devices.size(); ++d) {
    const FleetDeviceStats& dev = report.devices[d];
    os << "    {\n";
    os << "      \"device\": " << d << ",\n";
    os << "      \"name\": ";
    obs::write_json_quoted(os, dev.name);
    os << ",\n";
    os << "      \"placed\": " << dev.placed << ",\n";
    os << "      \"requeued_in\": " << dev.requeued_in << ",\n";
    os << "      \"requeued_out\": " << dev.requeued_out << ",\n";
    os << "      \"stolen_in\": " << dev.stolen_in << ",\n";
    os << "      \"stolen_out\": " << dev.stolen_out << ",\n";
    os << "      \"breaker_trips\": " << dev.breaker_trips << ",\n";
    os << "      \"breaker_probes\": " << dev.breaker_probes << ",\n";
    os << "      \"breaker_rejected\": " << dev.breaker_rejected << ",\n";
    os << "      \"breaker_final_state\": ";
    obs::write_json_quoted(os, dev.breaker_final_state);
    os << ",\n";
    os << "      \"failed_over_in\": " << dev.failed_over_in << ",\n";
    os << "      \"failed_over_out\": " << dev.failed_over_out << ",\n";
    os << "      \"hedges_run\": " << dev.hedges_run << ",\n";
    os << "      \"attempts_cancelled\": " << dev.attempts_cancelled << ",\n";
    os << "      \"lifecycle_downs\": " << dev.lifecycle_downs << ",\n";
    os << "      \"sdc_injected\": " << dev.sdc_injected << ",\n";
    os << "      \"sdc_detected\": " << dev.sdc_detected << ",\n";
    os << "      \"sdc_blamed\": " << dev.sdc_blamed << ",\n";
    os << "      \"verifications_run\": " << dev.verifications_run << ",\n";
    os << "      \"sdc_score\": " << obs::format_double(dev.sdc_score)
       << ",\n";
    os << "      \"blocklisted\": " << (dev.blocklisted ? "true" : "false")
       << ",\n";
    os << "      \"blocklisted_at_ns\": " << dev.blocklisted_at << ",\n";
    // The nested report keeps serve's own (top-level) indentation; JSON
    // whitespace carries no meaning and the bytes stay deterministic.
    os << "      \"report\": ";
    serve::write_report_json(os, dev.report);
    os << "    }" << (d + 1 < report.devices.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

std::string fleet_report_json(const FleetReport& report) {
  std::ostringstream os;
  write_fleet_report_json(os, report);
  return os.str();
}

std::uint64_t fleet_report_digest(const FleetReport& report) {
  Fnv1a64 hash;
  hash.mix_string(fleet_report_json(report));
  return hash.value();
}

FleetReport with_config_echo_of(FleetReport report,
                                const FleetReport& baseline) {
  report.hedging = baseline.hedging;
  report.failover_budget = baseline.failover_budget;
  report.integrity_policy = baseline.integrity_policy;
  report.spotcheck_rate = baseline.spotcheck_rate;
  report.sdc_blocklist_threshold = baseline.sdc_blocklist_threshold;
  return report;
}

}  // namespace hq::fleet
