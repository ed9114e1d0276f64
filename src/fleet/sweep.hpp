// Placement-policy x fleet-size sweeps (library hq_fleet).
//
// A FleetSweepGrid crosses fleet sizes with placement policies over one
// base FleetConfig; every point is an independent FleetService::run.
// FleetSweep is its point type for the journaled grid runner
// (exec/grid.hpp), so `hqserve --sweep-fleet --journal/--resume` gets the
// same guarantees as the harness sweeps: byte-identical outcomes at any
// --jobs count, and resuming against a different fleet shape or base config
// is a structured error, never a silent splice of foreign outcomes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exec/grid.hpp"
#include "fleet/fleet.hpp"

namespace hq::fleet {

struct FleetSweepGrid {
  /// Template config. Each point overrides the fleet size (see
  /// apply_point) and the placement policy; everything else is shared.
  FleetConfig base;
  std::vector<std::size_t> fleet_sizes = {1, 2, 4};
  std::vector<PlacementPolicy> placements = {PlacementPolicy::RoundRobin};
};

struct FleetSweepPoint {
  std::size_t index = 0;
  std::size_t fleet_size = 0;
  PlacementPolicy placement = PlacementPolicy::RoundRobin;

  /// Compact coordinates, e.g. "n=4 placement=least-loaded".
  std::string label() const;
};

/// Scalar results of one point, with the full report reduced to its digest
/// inside the worker.
struct FleetSweepOutcome {
  FleetSweepPoint point;
  std::uint64_t arrived = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;  ///< JobTally::shed(): every Shed* state
  std::uint64_t requeued = 0;
  std::uint64_t stolen = 0;
  double goodput_per_sec = 0;
  double throughput_per_sec = 0;
  double deadline_miss_ratio = 0;
  double energy = 0;
  std::uint64_t total_time = 0;
  std::uint64_t report_digest = 0;  ///< fleet_report_digest of the point
};

/// The point's concrete config: the base with the placement replaced and
/// the device list resized to fleet_size — reusing the base's resolved
/// specs cyclically (so a 2-spec heterogeneous base sweeps as A,B,A,B,...).
FleetConfig apply_fleet_point(const FleetSweepGrid& grid,
                              const FleetSweepPoint& point);

/// The fleet sweep's point type for exec::run_grid.
struct FleetSweep {
  using Grid = FleetSweepGrid;
  using Point = FleetSweepPoint;
  using Outcome = FleetSweepOutcome;
  static constexpr const char* kJournalMagic = "hq-fleet-journal";

  /// Enumerates the cross product in row-major order (sizes outermost).
  static std::vector<FleetSweepPoint> expand(const FleetSweepGrid& grid);

  /// Runs one point. Thread-safe.
  static FleetSweepOutcome run_point(const FleetSweepGrid& grid,
                                     const FleetSweepPoint& point);

  /// Fingerprint of the expanded grid: FNV-1a over the magic, the fleet
  /// report schema version, the point labels and the base fleet config's
  /// canonical codec text. Two grids with the same key produce
  /// interchangeable journals.
  static std::uint64_t grid_key(const FleetSweepGrid& grid,
                                std::span<const FleetSweepPoint> points);

  /// The journal codec: one `point` record per finished point.
  static std::span<const codec::Field<FleetSweepOutcome>> journal_fields();
};

/// Order-fixed 64-bit digest over the outcome vector — the cheap
/// byte-identity witness the CI fleet determinism check diffs.
std::uint64_t fleet_combined_digest(std::span<const FleetSweepOutcome> outcomes);

/// Deterministic aggregate table (placement-policy x fleet-size goodput).
std::string render_fleet_sweep_report(
    std::span<const FleetSweepOutcome> outcomes);

}  // namespace hq::fleet
