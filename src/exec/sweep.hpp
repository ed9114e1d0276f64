// Declarative experiment sweeps (library hq_sweep).
//
// A SweepGrid names the axes of an experiment — application sets x NA x NS
// x launch order x memory-sync x shuffle seed — and SweepRunner is its
// point type for the journaled grid runner (exec/grid.hpp): each point is
// an independent Harness::run seeded only by its own grid coordinates, so
// the outcome vector, every digest in it, and any report rendered from it
// are byte-identical at any `jobs` count, resumed or not.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "exec/grid.hpp"
#include "hyperq/harness.hpp"
#include "hyperq/schedule.hpp"
#include "rodinia/registry.hpp"

namespace hq::exec {

/// Axes of a sweep. The cross product of all vectors is run; every vector
/// must be non-empty.
struct SweepGrid {
  /// Each entry is one workload mix: 1+ registered application type names.
  /// NA instances are split evenly across the entry's types (remainder to
  /// the later types, matching the figure benches).
  std::vector<std::vector<std::string>> app_sets;
  std::vector<int> na = {8};
  std::vector<int> ns = {8};
  std::vector<fw::Order> orders = {fw::Order::NaiveFifo};
  std::vector<bool> memory_sync = {false};
  /// Shuffle seeds (only Order::RandomShuffle consumes them, but every
  /// point is keyed by one for uniform labelling).
  std::vector<std::uint64_t> seeds = {42};

  /// Template for per-point harness configs; num_streams and memory_sync
  /// are overwritten from the point's coordinates.
  fw::HarnessConfig base;
  /// Application parameters, shared by every type in every set.
  rodinia::AppParams params;
};

/// One point of the cross product, with its deterministic submission index.
struct SweepPoint {
  std::size_t index = 0;
  std::vector<std::string> apps;
  int na = 0;
  int ns = 0;
  fw::Order order = fw::Order::NaiveFifo;
  bool memory_sync = false;
  std::uint64_t seed = 0;

  /// Instance counts per app type (even split, remainder to later types).
  std::vector<int> counts() const;
  /// Compact human-readable coordinates, e.g. "gaussian+nn na=8 ns=4 ...".
  std::string label() const;
};

/// Scalar results of one point — everything the aggregate reports need,
/// with the heavyweight trace reduced to its digest inside the worker.
struct SweepOutcome {
  SweepPoint point;
  DurationNs makespan = 0;
  Joules energy_exact = 0;
  Watts average_power = 0;
  Watts peak_power = 0;
  double average_occupancy = 0;
  std::uint64_t trace_digest = 0;
  bool all_verified = true;
  /// Telemetry aggregates (filled when grid.base.collect_telemetry; zero
  /// otherwise). Mean Le is the Figure-6 quantity; the interleave totals
  /// sum the foreign-transfer attribution over all apps of the point; the
  /// peak depth is the deepest the HtoD copy queue ever got.
  double mean_htod_latency_ns = 0;
  std::uint64_t htod_interleave_count = 0;
  Bytes htod_interleave_bytes = 0;
  double peak_copy_queue_depth_htod = 0;
  /// Fault accounting (zero without a fault plan): total injected fault
  /// events and the number of apps the recovery layer quarantined.
  std::uint64_t faults_injected = 0;
  std::uint64_t quarantined_apps = 0;
};

class SweepRunner {
 public:
  using Grid = SweepGrid;
  using Point = SweepPoint;
  using Outcome = SweepOutcome;
  /// jobs, journal_path, resume (see exec/grid.hpp).
  using Options = GridOptions;
  static constexpr const char* kJournalMagic = "hq-sweep-journal";

  /// Enumerates the grid's cross product in row-major order (app_sets
  /// outermost, seeds innermost).
  static std::vector<SweepPoint> expand(const SweepGrid& grid);

  /// Runs one point: builds the schedule and workload from the point's
  /// coordinates and executes a fresh harness. Thread-safe.
  static SweepOutcome run_point(const SweepGrid& grid, const SweepPoint& point);

  /// Fingerprint of an expanded grid: mixes every point label plus all of
  /// the base config's result-affecting state — device spec, application
  /// params, transfer/launch/power knobs, fault plan, retry policy, and
  /// watchdog. Two grids with the same key produce interchangeable journals.
  static std::uint64_t grid_key(const SweepGrid& grid,
                                std::span<const SweepPoint> points);

  /// The journal codec: one `point` record per finished point.
  static std::span<const JournalField<SweepOutcome>> journal_fields();

  /// Runs the whole grid with bounded concurrency (run_grid); outcomes are
  /// indexed by submission order.
  std::vector<SweepOutcome> run(const SweepGrid& grid,
                                const Options& options) const;
  /// Serial convenience overload (jobs = 1, no journal).
  std::vector<SweepOutcome> run(const SweepGrid& grid) const {
    return run(grid, Options{});
  }
};

/// Order-insensitive-input, order-fixed-output 64-bit digest over the
/// outcome vector (digests + makespans + energies, in index order). Equal
/// digests across job counts are the cheap byte-identity witness.
std::uint64_t combined_digest(std::span<const SweepOutcome> outcomes);

/// Renders the deterministic aggregate table + summary footer. Two sweeps
/// of the same grid must produce byte-identical reports at any job count.
std::string render_report(std::span<const SweepOutcome> outcomes);

/// Versioned per-point aggregate metrics JSON ({"schema_version", "points",
/// "combined_digest"}). Outcomes are emitted in submission-index order and
/// doubles in shortest round-trip form, so the bytes are identical at any
/// job count — the property the CI determinism check diffs.
void write_sweep_metrics_json(std::ostream& os,
                              std::span<const SweepOutcome> outcomes);
std::string sweep_metrics_json(std::span<const SweepOutcome> outcomes);

}  // namespace hq::exec
