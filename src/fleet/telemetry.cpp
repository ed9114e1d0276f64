#include "fleet/telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string_view>
#include <variant>

#include "common/check.hpp"
#include "fleet/report.hpp"
#include "obs/report.hpp"
#include "trace/chrome_trace.hpp"

namespace hq::fleet {
namespace {

void require_observability(const FleetResult& result) {
  HQ_CHECK_MSG(result.fleet_metrics != nullptr && result.lifecycle != nullptr,
               "fleet observability export needs a run with "
               "base.collect_metrics enabled");
  for (std::size_t d = 0; d < result.devices.size(); ++d) {
    HQ_CHECK_MSG(result.devices[d].metrics != nullptr,
                 "fleet device " << d << " has no metrics registry");
  }
}

const obs::Series* find_series(const obs::MetricsRegistry& registry,
                               std::string_view name) {
  const obs::MetricsRegistry::Entry* entry = registry.find(name);
  if (entry == nullptr || entry->kind != obs::MetricKind::Series) {
    return nullptr;
  }
  return &std::get<obs::Series>(entry->metric);
}

double series_at(const obs::MetricsRegistry& registry, std::string_view name,
                 TimeNs t) {
  const obs::Series* series = find_series(registry, name);
  return series == nullptr ? 0.0 : series->value_at(t);
}

}  // namespace

obs::FleetInfo fleet_info_of(const FleetResult& result) {
  const FleetReport& report = result.report;
  obs::FleetInfo info;
  info.workload = report.workload;
  info.num_devices = report.num_devices;
  info.placement = report.placement;
  info.work_stealing = report.work_stealing;
  info.seed = report.seed;
  info.arrived = report.arrived;
  info.completed = report.completed;
  info.total_time = report.total_time;
  info.energy_j = report.energy;
  info.report_digest = fleet_report_digest(report);
  return info;
}

obs::FleetRollup build_fleet_rollup(const FleetResult& result) {
  require_observability(result);
  obs::FleetRollup rollup;
  for (std::size_t d = 0; d < result.devices.size(); ++d) {
    rollup.add_device(static_cast<int>(d), result.report.devices[d].name,
                      result.devices[d].metrics);
  }
  rollup.fleet() = *result.fleet_metrics;
  return rollup;
}

void write_fleet_metrics_json(std::ostream& os, const FleetResult& result) {
  obs::write_fleet_metrics_json(os, fleet_info_of(result),
                                build_fleet_rollup(result));
}

std::string fleet_metrics_json(const FleetResult& result) {
  std::ostringstream os;
  write_fleet_metrics_json(os, result);
  return os.str();
}

void write_fleet_prometheus(std::ostream& os, const FleetResult& result) {
  obs::write_fleet_prometheus(os, build_fleet_rollup(result));
}

std::string fleet_prometheus_text(const FleetResult& result) {
  std::ostringstream os;
  write_fleet_prometheus(os, result);
  return os.str();
}

void write_fleet_chrome_trace(std::ostream& os, const FleetResult& result) {
  require_observability(result);
  std::vector<trace::ProcessTrack> processes;
  processes.reserve(result.devices.size());
  for (std::size_t d = 0; d < result.devices.size(); ++d) {
    trace::ProcessTrack proc;
    proc.pid = static_cast<int>(d);
    proc.name = "device " + std::to_string(d) + " (" +
                result.report.devices[d].name + ")";
    proc.recorder = result.devices[d].trace.get();
    proc.counters = obs::counter_tracks(*result.devices[d].metrics);
    processes.push_back(std::move(proc));
  }

  // One flow arrow per requeue/steal/failover/hedge/verify hop, bound by
  // job id: from the hop instant on the source device lane to the job's
  // dispatch on the target lane (or the hop instant itself when the job
  // never dispatched there). Hedges and verifications dispatch
  // immediately, so their arrows are always instant; a corruption
  // detection is a self-arrow on the blamed device's lane.
  std::vector<trace::FlowEvent> flows;
  const serve::JobLifecycleTracer& tracer = *result.lifecycle;
  for (std::size_t job = 0; job < tracer.num_jobs(); ++job) {
    const std::vector<serve::JobEvent>& chain =
        tracer.events(static_cast<int>(job));
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const serve::JobEvent& e = chain[i];
      const char* name = nullptr;
      switch (e.kind) {
        case serve::JobEventKind::Requeued:   name = "requeue"; break;
        case serve::JobEventKind::Stolen:     name = "steal"; break;
        case serve::JobEventKind::FailedOver: name = "failover"; break;
        case serve::JobEventKind::Hedged:     name = "hedge"; break;
        case serve::JobEventKind::VerifyDispatched:
          name = "verify";
          break;
        case serve::JobEventKind::CorruptionDetected:
          name = "corruption";
          break;
        default: continue;
      }
      trace::FlowEvent flow;
      flow.name = name;
      flow.id = static_cast<int>(job);
      flow.from_pid = e.from_device >= 0 ? e.from_device : e.device;
      flow.from_time = e.at;
      flow.to_pid = e.device;
      flow.to_time = e.at;
      // Hedges and verifications run the moment they are recorded;
      // queue-entering hops point at the job's next dispatch on the
      // target device.
      if (e.kind != serve::JobEventKind::Hedged &&
          e.kind != serve::JobEventKind::VerifyDispatched &&
          e.kind != serve::JobEventKind::CorruptionDetected) {
        for (std::size_t j = i + 1; j < chain.size(); ++j) {
          if (chain[j].kind == serve::JobEventKind::Dispatched) {
            flow.to_time = chain[j].at;
            break;
          }
          if (chain[j].kind == serve::JobEventKind::Requeued ||
              chain[j].kind == serve::JobEventKind::Stolen ||
              chain[j].kind == serve::JobEventKind::FailedOver) {
            break;  // the job moved again before dispatching; arrow ends here
          }
        }
      }
      flows.push_back(std::move(flow));
    }
  }
  trace::write_chrome_trace(processes, flows, os);
}

std::string fleet_chrome_trace_json(const FleetResult& result) {
  std::ostringstream os;
  write_fleet_chrome_trace(os, result);
  return os.str();
}

std::vector<FleetSnapshot> sample_fleet_snapshots(const FleetResult& result,
                                                  DurationNs interval) {
  require_observability(result);
  HQ_CHECK_MSG(interval > 0,
               "fleet snapshot interval must be > 0, got " << interval);
  const TimeNs total = result.report.total_time;
  std::vector<FleetSnapshot> snapshots;
  for (TimeNs t = 0;; t += interval) {
    const TimeNs at = std::min(t, total);
    FleetSnapshot snap;
    snap.t = at;
    snap.devices.reserve(result.devices.size());
    for (std::size_t d = 0; d < result.devices.size(); ++d) {
      const obs::MetricsRegistry& reg = *result.devices[d].metrics;
      DeviceSnapshot dev;
      dev.device = static_cast<int>(d);
      dev.queue_depth = series_at(reg, "serve_queue_depth", at);
      dev.inflight = series_at(reg, "serve_inflight", at);
      dev.completed = series_at(reg, "device_completed", at);
      dev.breaker_state = series_at(reg, "device_breaker_state", at);
      snap.devices.push_back(dev);
    }
    snapshots.push_back(std::move(snap));
    if (t >= total) break;
  }
  return snapshots;
}

void write_fleet_snapshots_jsonl(std::ostream& os, const FleetResult& result,
                                 DurationNs interval) {
  for (const FleetSnapshot& snap :
       sample_fleet_snapshots(result, interval)) {
    os << "{\"schema_version\": " << kFleetSnapshotSchemaVersion
       << ", \"t_ns\": " << snap.t << ", \"devices\": [";
    bool first = true;
    for (const DeviceSnapshot& dev : snap.devices) {
      if (!first) os << ", ";
      first = false;
      os << "{\"device\": " << dev.device
         << ", \"queue_depth\": " << obs::format_double(dev.queue_depth)
         << ", \"inflight\": " << obs::format_double(dev.inflight)
         << ", \"completed\": " << obs::format_double(dev.completed)
         << ", \"breaker_state\": " << obs::format_double(dev.breaker_state)
         << "}";
    }
    os << "]}\n";
  }
}

std::string fleet_snapshots_jsonl(const FleetResult& result,
                                  DurationNs interval) {
  std::ostringstream os;
  write_fleet_snapshots_jsonl(os, result, interval);
  return os.str();
}

}  // namespace hq::fleet
