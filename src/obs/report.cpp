#include "obs/report.hpp"

#include <ostream>
#include <sstream>

namespace hq::obs {
namespace {

void write_json_escaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          break;  // control characters are not expected in names/help
        }
        os << c;
    }
  }
}

void write_quoted(std::ostream& os, std::string_view s) {
  os << '"';
  write_json_escaped(os, s);
  os << '"';
}

}  // namespace

void write_json_quoted(std::ostream& os, std::string_view s) {
  write_quoted(os, s);
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

void write_metric_entry(std::ostream& os, const MetricsRegistry::Entry& e) {
  os << "    {\"name\": ";
  write_quoted(os, e.name);
  os << ", \"kind\": \"" << metric_kind_name(e.kind) << "\", \"help\": ";
  write_quoted(os, e.help);
  switch (e.kind) {
    case MetricKind::Counter:
      os << ", \"value\": " << std::get<Counter>(e.metric).value();
      break;
    case MetricKind::Gauge: {
      const Gauge& g = std::get<Gauge>(e.metric);
      os << ", \"value\": " << format_double(g.value())
         << ", \"peak\": " << format_double(g.peak());
      break;
    }
    case MetricKind::Histogram: {
      const Histogram& h = std::get<Histogram>(e.metric);
      os << ", \"bounds\": [";
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        if (i != 0) os << ", ";
        os << format_double(h.bounds()[i]);
      }
      os << "], \"counts\": [";
      for (std::size_t i = 0; i < h.counts().size(); ++i) {
        if (i != 0) os << ", ";
        os << h.counts()[i];
      }
      os << "], \"count\": " << h.count()
         << ", \"sum\": " << format_double(h.sum());
      break;
    }
    case MetricKind::Series: {
      const Series& s = std::get<Series>(e.metric);
      os << ", \"peak\": " << format_double(s.peak()) << ", \"points\": [";
      const char* sep = "";
      for (Series::Cursor c(s); !c.done(); c.next()) {
        os << sep << "[" << c.time() << ", " << format_double(c.value())
           << "]";
        sep = ", ";
      }
      os << "]";
      break;
    }
  }
  os << "}";
}

}  // namespace

void write_metric_entry_json(std::ostream& os,
                             const MetricsRegistry::Entry& entry) {
  write_metric_entry(os, entry);
}

void write_metrics_json(std::ostream& os, const RunInfo& info,
                        const MetricsRegistry& registry,
                        const std::vector<AppReport>& apps) {
  os << "{\n  \"schema_version\": " << kMetricsSchemaVersion << ",\n";
  os << "  \"run\": {\"workload\": ";
  write_quoted(os, info.workload);
  os << ", \"num_apps\": " << info.num_apps
     << ", \"num_streams\": " << info.num_streams << ", \"order\": ";
  write_quoted(os, info.order);
  os << ", \"memory_sync\": " << (info.memory_sync ? "true" : "false")
     << ", \"makespan_ns\": " << info.makespan
     << ", \"energy_j\": " << format_double(info.energy_j)
     << ", \"average_power_w\": " << format_double(info.average_power_w)
     << ", \"peak_power_w\": " << format_double(info.peak_power_w)
     << ", \"average_occupancy\": " << format_double(info.average_occupancy)
     << ", \"trace_digest\": \"" << hex_digest(info.trace_digest) << "\"},\n";
  os << "  \"apps\": [";
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppReport& a = apps[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"app_id\": " << a.app_id << ", \"type\": ";
    write_quoted(os, a.type);
    os << ", \"htod_effective_latency_ns\": " << a.htod_effective_latency
       << ", \"dtoh_effective_latency_ns\": " << a.dtoh_effective_latency
       << ", \"htod_own_time_ns\": " << a.htod_own_time
       << ", \"htod_bytes\": " << a.htod_bytes
       << ", \"dtoh_bytes\": " << a.dtoh_bytes
       << ", \"htod_interleave_count\": " << a.htod_interleave_count
       << ", \"htod_interleave_bytes\": " << a.htod_interleave_bytes << "}";
  }
  os << (apps.empty() ? "],\n" : "\n  ],\n");
  os << "  \"metrics\": [";
  bool first = true;
  registry.for_each([&](const MetricsRegistry::Entry& e) {
    os << (first ? "\n" : ",\n");
    first = false;
    write_metric_entry(os, e);
  });
  os << (first ? "]\n" : "\n  ]\n");
  os << "}\n";
}

std::string metrics_json(const RunInfo& info, const MetricsRegistry& registry,
                         const std::vector<AppReport>& apps) {
  std::ostringstream os;
  write_metrics_json(os, info, registry, apps);
  return os.str();
}

void write_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  registry.for_each([&](const MetricsRegistry::Entry& e) {
    const std::string name = "hq_" + e.name;
    if (!e.help.empty()) os << "# HELP " << name << " " << e.help << "\n";
    switch (e.kind) {
      case MetricKind::Counter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << std::get<Counter>(e.metric).value() << "\n";
        break;
      case MetricKind::Gauge: {
        const Gauge& g = std::get<Gauge>(e.metric);
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << format_double(g.value()) << "\n";
        os << name << "_peak " << format_double(g.peak()) << "\n";
        break;
      }
      case MetricKind::Histogram: {
        const Histogram& h = std::get<Histogram>(e.metric);
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.counts()[i];
          os << name << "_bucket{le=\"" << format_double(h.bounds()[i])
             << "\"} " << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
        os << name << "_sum " << format_double(h.sum()) << "\n";
        os << name << "_count " << h.count() << "\n";
        break;
      }
      case MetricKind::Series: {
        // Prometheus exposition is a point-in-time snapshot: export the
        // final value and the run peak; the full trajectory lives in the
        // JSON report and the Chrome-trace counters.
        const Series& s = std::get<Series>(e.metric);
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << format_double(s.last()) << "\n";
        os << name << "_peak " << format_double(s.peak()) << "\n";
        break;
      }
    }
  });
}

std::string prometheus_text(const MetricsRegistry& registry) {
  std::ostringstream os;
  write_prometheus(os, registry);
  return os.str();
}

std::vector<trace::CounterTrack> counter_tracks(
    const MetricsRegistry& registry) {
  std::vector<trace::CounterTrack> tracks;
  registry.for_each([&](const MetricsRegistry::Entry& e) {
    if (e.kind != MetricKind::Series) return;
    const Series& s = std::get<Series>(e.metric);
    trace::CounterTrack track;
    track.name = e.name;
    track.points.reserve(s.size());
    for (Series::Cursor c(s); !c.done(); c.next()) {
      track.points.push_back(trace::CounterPoint{c.time(), c.value()});
    }
    tracks.push_back(std::move(track));
  });
  return tracks;
}

}  // namespace hq::obs
