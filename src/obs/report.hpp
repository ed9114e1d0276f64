// Telemetry export: versioned JSON report, Prometheus text exposition, and
// Chrome-trace counter tracks, all rendered from one MetricsRegistry.
//
// Determinism contract: every export here is byte-identical for a given
// registry + inputs. Doubles are printed with std::to_chars (shortest
// round-trip form, locale-independent), metrics are emitted in registration
// order, and apps in caller order — so a metrics report produced inside a
// parallel sweep is byte-identical at any --jobs (the PR-2 contract).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "trace/chrome_trace.hpp"

namespace hq::obs {

/// Bump when the JSON layout changes shape (adding fields is compatible and
/// does not require a bump; renaming/removing does).
inline constexpr int kMetricsSchemaVersion = 1;

/// Per-application row of the report: paper Eq. 1-2 latencies plus the
/// interleave attribution explaining them.
struct AppReport {
  int app_id = -1;
  std::string type;
  DurationNs htod_effective_latency = 0;
  DurationNs dtoh_effective_latency = 0;
  DurationNs htod_own_time = 0;
  Bytes htod_bytes = 0;
  Bytes dtoh_bytes = 0;
  /// Foreign HtoD transfers served inside this app's [Tstart, Tend] window.
  std::uint64_t htod_interleave_count = 0;
  Bytes htod_interleave_bytes = 0;
};

/// Run-level header of the report.
struct RunInfo {
  std::string workload;  ///< e.g. "gaussian+needle"
  int num_apps = 0;
  int num_streams = 0;
  std::string order;  ///< issue-order name; empty when not applicable
  bool memory_sync = false;
  DurationNs makespan = 0;
  Joules energy_j = 0;
  Watts average_power_w = 0;
  Watts peak_power_w = 0;
  double average_occupancy = 0;
  std::uint64_t trace_digest = 0;
};

/// Shortest round-trip decimal rendering of a double (common/table.hpp) —
/// the deterministic formatter every exporter here uses.
using hq::format_double;

/// Writes `s` as a JSON string literal (quoted, with control characters and
/// quotes escaped). Shared by every hand-rolled JSON exporter in the project
/// so string handling cannot drift between reports.
void write_json_quoted(std::ostream& os, std::string_view s);

/// One registry entry as a JSON object ({"name", "kind", "help", ...value
/// fields per kind}). Shared by the run-level and fleet-level metric
/// reports so the entry layout cannot drift between them.
void write_metric_entry_json(std::ostream& os,
                             const MetricsRegistry::Entry& entry);

/// Versioned JSON metrics report: {"schema_version", "run", "apps",
/// "metrics"}. Metric entries carry their kind; series points are [t, v]
/// pairs in nanoseconds.
void write_metrics_json(std::ostream& os, const RunInfo& info,
                        const MetricsRegistry& registry,
                        const std::vector<AppReport>& apps);
std::string metrics_json(const RunInfo& info, const MetricsRegistry& registry,
                         const std::vector<AppReport>& apps);

/// Prometheus text exposition (metric names prefixed "hq_"). Counters and
/// gauges map directly; histograms emit cumulative le-buckets, _sum and
/// _count; series snapshot to a gauge (last value) plus a _peak gauge.
void write_prometheus(std::ostream& os, const MetricsRegistry& registry);
std::string prometheus_text(const MetricsRegistry& registry);

/// Every Series in the registry as a Chrome-trace counter track, in
/// registration order — merged into the span trace by write_chrome_trace.
std::vector<trace::CounterTrack> counter_tracks(const MetricsRegistry& registry);

}  // namespace hq::obs
