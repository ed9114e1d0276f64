#include "obs/rollup.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "obs/report.hpp"

namespace hq::obs {

void FleetRollup::add_device(int device_id, std::string name,
                             std::shared_ptr<const MetricsRegistry> registry) {
  HQ_CHECK_MSG(device_id >= 0, "fleet rollup: device id must be >= 0, got "
                                   << device_id);
  HQ_CHECK_MSG(registry != nullptr,
               "fleet rollup: device " << device_id << " has no registry");
  for (const DeviceEntry& d : devices_) {
    HQ_CHECK_MSG(d.device_id != device_id,
                 "fleet rollup: device " << device_id << " added twice");
  }
  devices_.push_back(DeviceEntry{device_id, std::move(name),
                                 std::move(registry)});
  // Once out of order, stays out of order until devices() re-sorts —
  // comparing only the last two entries must not clobber an earlier
  // violation.
  sorted_ = sorted_ && (devices_.size() < 2 ||
                        devices_[devices_.size() - 2].device_id < device_id);
}

const std::vector<FleetRollup::DeviceEntry>& FleetRollup::devices() const {
  if (!sorted_) {
    std::sort(devices_.begin(), devices_.end(),
              [](const DeviceEntry& a, const DeviceEntry& b) {
                return a.device_id < b.device_id;
              });
    sorted_ = true;
  }
  return devices_;
}

namespace {

/// Union of metric names over the (ascending-id) device set, in
/// first-encounter order, with the entries each name maps to. Kind
/// mismatches across devices are configuration bugs and throw.
struct NameUnion {
  std::vector<std::string> names;
  std::map<std::string, std::vector<const MetricsRegistry::Entry*>> entries;
};

NameUnion union_names(const std::vector<FleetRollup::DeviceEntry>& devices) {
  NameUnion u;
  for (const FleetRollup::DeviceEntry& d : devices) {
    d.registry->for_each([&](const MetricsRegistry::Entry& e) {
      auto [it, fresh] = u.entries.try_emplace(e.name);
      if (fresh) {
        u.names.push_back(e.name);
      } else if (!it->second.empty()) {
        HQ_CHECK_MSG(it->second.front()->kind == e.kind,
                     "fleet rollup: metric '"
                         << e.name << "' is "
                         << metric_kind_name(it->second.front()->kind)
                         << " on one device and " << metric_kind_name(e.kind)
                         << " on device " << d.device_id);
      }
      it->second.push_back(&e);
    });
  }
  return u;
}

/// One source of a series sweep: its cursor and its value in effect.
struct SweepCursor {
  Series::Cursor head;
  double value = 0.0;  ///< in effect before the first point
};

/// The sources' sum by the NaN rule: adding in source order from 0.0, a NaN
/// running sum stays as it is and a NaN value replaces a number, so a NaN
/// result is the first NaN met, bit for bit. IEEE leaves the payload of
/// NaN + NaN to the implementation, and a compiler may emit `sum += value`
/// as `value + sum`, so a plain sum's NaN is not fixed. Called only when
/// the plain sum is NaN; any other sum is the same either way.
[[gnu::noinline, gnu::cold]] double nan_rule_sum(
    const std::vector<SweepCursor>& cursors) {
  double sum = 0.0;
  for (const SweepCursor& c : cursors) {
    if (std::isnan(sum)) break;
    sum = std::isnan(c.value) ? c.value : sum + c.value;
  }
  return sum;
}

/// Sweeps the per-device trajectories of one series metric (sources in
/// ascending device id) in time order and calls `sink(t, sum)` once per
/// distinct event time, where `sum` is 0.0 + v(dev0) + v(dev1) + ... over
/// the values in effect at `t`, with a NaN sum fixed by nan_rule_sum. One
/// cursor per source and no sort: each step takes the minimum head time,
/// advances the cursors sitting on it and re-adds every in-effect value in
/// source order. Re-adding (rather than a running `sum += new - old`) keeps
/// the rounding, and so every exported byte, identical to evaluating each
/// instant from scratch.
template <typename Sink>
void sweep_series_sum(const std::vector<const MetricsRegistry::Entry*>& sources,
                      Sink&& sink) {
  std::vector<SweepCursor> cursors;
  cursors.reserve(sources.size());
  bool more = false;
  TimeNs t = 0;
  for (const MetricsRegistry::Entry* e : sources) {
    const SweepCursor& c = cursors.emplace_back(
        SweepCursor{Series::Cursor(std::get<Series>(e->metric))});
    if (!c.head.done()) {
      t = more ? std::min(t, c.head.time()) : c.head.time();
      more = true;
    }
  }
  while (more) {
    // Series times strictly increase, so at most one point per cursor sits
    // on `t`; the next step's time is the minimum of the new heads.
    double sum = 0.0;
    TimeNs next = 0;
    more = false;
    for (SweepCursor& c : cursors) {
      if (!c.head.done() && c.head.time() == t) {
        c.value = c.head.value();
        c.head.next();
      }
      sum += c.value;
      if (!c.head.done()) {
        next = more ? std::min(next, c.head.time()) : c.head.time();
        more = true;
      }
    }
    if (std::isnan(sum)) [[unlikely]] sum = nan_rule_sum(cursors);
    sink(t, sum);
    t = next;
  }
}

/// Last and peak of a merged series without storing its points: the same
/// values Series::sample would report (peak starts at 0.0; an empty merge
/// reads 0/0).
struct SeriesSummary {
  double last = 0.0;
  double peak = 0.0;
  void operator()(TimeNs /*t*/, double v) {
    last = v;
    peak = std::max(peak, v);
  }
};

/// Folds one metric's per-device entries (ascending id) into `out`.
void merge_into(MetricsRegistry& out, const std::string& name,
                const std::vector<const MetricsRegistry::Entry*>& sources) {
  const MetricsRegistry::Entry& first = *sources.front();
  switch (first.kind) {
    case MetricKind::Counter: {
      Counter& c = out.counter(name, first.help);
      for (const MetricsRegistry::Entry* e : sources) {
        c.add(std::get<Counter>(e->metric).value());
      }
      break;
    }
    case MetricKind::Gauge: {
      double sum = 0.0;
      for (const MetricsRegistry::Entry* e : sources) {
        sum += std::get<Gauge>(e->metric).value();
      }
      out.gauge(name, first.help).set(sum);
      break;
    }
    case MetricKind::Histogram: {
      Histogram& h = out.histogram(
          name, std::get<Histogram>(first.metric).bounds(), first.help);
      for (const MetricsRegistry::Entry* e : sources) {
        h.merge(std::get<Histogram>(e->metric));
      }
      break;
    }
    case MetricKind::Series: {
      // Point-wise sum of the per-device piecewise-constant trajectories:
      // an event exists wherever any device's series has one, and the value
      // there is the sum of every device's value in effect at that instant.
      Series& s = out.series(name, first.help);
      sweep_series_sum(sources, [&s](TimeNs t, double v) { s.sample(t, v); });
      break;
    }
  }
}

}  // namespace

MetricsRegistry FleetRollup::merged() const {
  MetricsRegistry out;
  const NameUnion u = union_names(devices());
  for (const std::string& name : u.names) {
    merge_into(out, name, u.entries.at(name));
  }
  return out;
}

namespace {

std::string hex_digest(std::uint64_t v) {
  char buf[17] = {};
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[v & 0xF];
    v >>= 4;
  }
  return "0x" + std::string(buf, 16);
}

void write_registry_entries(std::ostream& os, const MetricsRegistry& registry,
                            const char* entry_indent,
                            const char* close_indent) {
  os << "[";
  bool first = true;
  registry.for_each([&](const MetricsRegistry::Entry& e) {
    os << (first ? "\n" : ",\n") << entry_indent;
    first = false;
    write_metric_entry_json(os, e);
  });
  if (!first) os << "\n" << close_indent;
  os << "]";
}

/// The two samples a gauge or series exports: its value and its peak.
void emit_last_and_peak(std::ostream& os, const std::string& name,
                        const std::string& inst, double last, double peak) {
  os << name << inst << " " << format_double(last) << "\n";
  os << name << "_peak" << inst << " " << format_double(peak) << "\n";
}

/// One Prometheus sample group for an entry, with an optional label
/// (`device="3"`, no braces). Byte-compatible with obs::write_prometheus
/// when the label is empty and the prefix is "hq_".
void emit_prometheus_entry(std::ostream& os, const std::string& name,
                           const std::string& label,
                           const MetricsRegistry::Entry& e) {
  const std::string inst = label.empty() ? "" : "{" + label + "}";
  switch (e.kind) {
    case MetricKind::Counter:
      os << name << inst << " " << std::get<Counter>(e.metric).value()
         << "\n";
      break;
    case MetricKind::Gauge: {
      const Gauge& g = std::get<Gauge>(e.metric);
      emit_last_and_peak(os, name, inst, g.value(), g.peak());
      break;
    }
    case MetricKind::Histogram: {
      const Histogram& h = std::get<Histogram>(e.metric);
      const std::string le_prefix = label.empty() ? "" : label + ",";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        cumulative += h.counts()[i];
        os << name << "_bucket{" << le_prefix << "le=\""
           << format_double(h.bounds()[i]) << "\"} " << cumulative << "\n";
      }
      os << name << "_bucket{" << le_prefix << "le=\"+Inf\"} " << h.count()
         << "\n";
      os << name << "_sum" << inst << " " << format_double(h.sum()) << "\n";
      os << name << "_count" << inst << " " << h.count() << "\n";
      break;
    }
    case MetricKind::Series: {
      const Series& s = std::get<Series>(e.metric);
      emit_last_and_peak(os, name, inst, s.last(), s.peak());
      break;
    }
  }
}

void emit_prometheus_meta(std::ostream& os, const std::string& name,
                          const MetricsRegistry::Entry& e) {
  if (!e.help.empty()) os << "# HELP " << name << " " << e.help << "\n";
  const char* type =
      e.kind == MetricKind::Counter
          ? "counter"
          : e.kind == MetricKind::Histogram ? "histogram" : "gauge";
  os << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

void write_fleet_metrics_json(std::ostream& os, const FleetInfo& info,
                              const FleetRollup& rollup) {
  os << "{\n  \"schema_version\": " << kFleetMetricsSchemaVersion << ",\n";
  os << "  \"fleet\": {\"workload\": ";
  write_json_quoted(os, info.workload);
  os << ", \"num_devices\": " << info.num_devices << ", \"placement\": ";
  write_json_quoted(os, info.placement);
  os << ", \"work_stealing\": " << (info.work_stealing ? "true" : "false")
     << ", \"seed\": " << info.seed << ", \"arrived\": " << info.arrived
     << ", \"completed\": " << info.completed
     << ", \"total_time_ns\": " << info.total_time
     << ", \"energy_j\": " << format_double(info.energy_j)
     << ", \"report_digest\": \"" << hex_digest(info.report_digest)
     << "\"},\n";
  os << "  \"devices\": [";
  const auto& devices = rollup.devices();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"device\": " << devices[i].device_id << ", \"name\": ";
    write_json_quoted(os, devices[i].name);
    os << ", \"metrics\": ";
    write_registry_entries(os, *devices[i].registry, "      ", "    ");
    os << "}";
  }
  os << (devices.empty() ? "],\n" : "\n  ],\n");
  os << "  \"fleet_metrics\": ";
  write_registry_entries(os, rollup.fleet(), "    ", "  ");
  os << ",\n  \"merged_metrics\": ";
  write_registry_entries(os, rollup.merged(), "    ", "  ");
  os << "\n}\n";
}

std::string fleet_metrics_json(const FleetInfo& info,
                               const FleetRollup& rollup) {
  std::ostringstream os;
  write_fleet_metrics_json(os, info, rollup);
  return os.str();
}

void write_fleet_prometheus(std::ostream& os, const FleetRollup& rollup) {
  // Per-device metrics, name-major: TYPE/HELP once per metric, then one
  // labeled sample group per device (ascending id).
  const auto& devices = rollup.devices();
  const NameUnion u = union_names(devices);
  for (const std::string& raw : u.names) {
    const std::string name = "hq_" + raw;
    bool meta_written = false;
    for (const FleetRollup::DeviceEntry& d : devices) {
      const MetricsRegistry::Entry* e = d.registry->find(raw);
      if (e == nullptr) continue;
      if (!meta_written) {
        emit_prometheus_meta(os, name, *e);
        meta_written = true;
      }
      emit_prometheus_entry(
          os, name, "device=\"" + std::to_string(d.device_id) + "\"", *e);
    }
  }
  // Fleet-scope metrics, unlabeled under their own (fleet_-prefixed) names.
  write_prometheus(os, rollup.fleet());
  // Merged per-device metrics as hq_fleet_<name>, in merged() order. A
  // series exports only its last and peak values, so the sweep folds into a
  // summary instead of materializing the fleet-wide trajectory.
  for (const std::string& raw : u.names) {
    const auto& sources = u.entries.at(raw);
    const std::string name = "hq_fleet_" + raw;
    emit_prometheus_meta(os, name, *sources.front());
    if (sources.front()->kind == MetricKind::Series) {
      SeriesSummary summary;
      sweep_series_sum(sources, summary);
      emit_last_and_peak(os, name, "", summary.last, summary.peak);
    } else {
      MetricsRegistry merged;
      merge_into(merged, raw, sources);
      emit_prometheus_entry(os, name, "", *merged.find(raw));
    }
  }
}

std::string fleet_prometheus_text(const FleetRollup& rollup) {
  std::ostringstream os;
  write_fleet_prometheus(os, rollup);
  return os.str();
}

}  // namespace hq::obs
