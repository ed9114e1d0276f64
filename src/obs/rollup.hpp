// Fleet-level metric rollup (library hq_obs).
//
// A FleetRollup aggregates one MetricsRegistry per simulated device —
// typically the TelemetryObserver registry the fleet layer attaches to each
// device — into a single fleet view with three sections:
//
//   * per-device: every device registry verbatim, exported with a
//     device="<id>" label in Prometheus and a per-device JSON block;
//   * fleet-scope: a registry owned by the rollup for metrics that only
//     exist at fleet level (job lifecycle latency breakdowns, hop counters,
//     shed-no-device counts) — the caller fills it in;
//   * merged: the per-device registries folded together — counters and
//     histogram buckets sum, gauges sum, and event-driven series become the
//     point-wise sum of the per-device trajectories.
//
// Merge-order independence: devices are always folded in ascending device
// id, whatever order add_device was called in, so the merged registry (and
// every export byte) is independent of registration order — a pinned test
// property. All doubles render through obs::format_double, so exports are
// byte-identical across runs and job counts (the repository determinism
// contract extended to the fleet).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace hq::obs {

/// Bump when the fleet metrics JSON layout changes shape (adding fields is
/// compatible; renaming/removing is not).
inline constexpr int kFleetMetricsSchemaVersion = 1;

/// Fleet-run header of the fleet metrics report (the fleet analogue of
/// RunInfo).
struct FleetInfo {
  std::string workload;
  std::size_t num_devices = 0;
  std::string placement;
  bool work_stealing = false;
  std::uint64_t seed = 0;
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  DurationNs total_time = 0;
  Joules energy_j = 0;
  /// fleet_report_digest of the run this report observes.
  std::uint64_t report_digest = 0;
};

class FleetRollup {
 public:
  struct DeviceEntry {
    int device_id = -1;
    std::string name;  ///< device spec name; shown in exports
    std::shared_ptr<const MetricsRegistry> registry;
  };

  /// Registers one device's registry. Ids must be unique and >= 0; call
  /// order does not matter (devices are folded in ascending id).
  void add_device(int device_id, std::string name,
                  std::shared_ptr<const MetricsRegistry> registry);

  /// Fleet-scope metrics (lifecycle breakdowns, hop counters, ...); owned
  /// by the rollup, exported unlabeled under their own names.
  MetricsRegistry& fleet() { return fleet_; }
  const MetricsRegistry& fleet() const { return fleet_; }

  /// Device entries sorted ascending by id.
  const std::vector<DeviceEntry>& devices() const;

  /// Folds the per-device registries together (ascending id): counters and
  /// histogram buckets sum, gauges sum (peak == final sum), series become
  /// the point-wise sum of the per-device piecewise-constant trajectories.
  /// Recomputed on each call from the current device set.
  ///
  /// Series merge in one linear sweep, O(T * D) for T distinct event times
  /// over D devices: a cursor per device, advanced to the minimum head time,
  /// and at each time the in-effect values added afresh in ascending device
  /// order (0.0 + v(dev0) + v(dev1) + ...). That fixed summation order, not
  /// a running sum, is what keeps every merged value and export byte
  /// identical to evaluating each instant independently.
  MetricsRegistry merged() const;

 private:
  MetricsRegistry fleet_;
  mutable std::vector<DeviceEntry> devices_;
  mutable bool sorted_ = true;
};

/// Versioned fleet metrics JSON: {"schema_version", "fleet", "devices"
/// (each with its full registry), "fleet_metrics", "merged_metrics"}.
void write_fleet_metrics_json(std::ostream& os, const FleetInfo& info,
                              const FleetRollup& rollup);
std::string fleet_metrics_json(const FleetInfo& info,
                               const FleetRollup& rollup);

/// Prometheus text exposition of the rollup: per-device metrics carry a
/// device="<id>" label ("hq_" prefix as usual, grouped name-major so TYPE
/// and HELP render once per metric); fleet-scope metrics render unlabeled;
/// merged per-device metrics render as hq_fleet_<name>. Merged series need
/// only their last and peak values, so they are never materialized here.
void write_fleet_prometheus(std::ostream& os, const FleetRollup& rollup);
std::string fleet_prometheus_text(const FleetRollup& rollup);

}  // namespace hq::obs
