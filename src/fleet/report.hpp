// Final report of one fleet serving run (library hq_fleet).
//
// A FleetReport nests one full serve::ServeReport per device (the report
// of the jobs that device terminally owns) under
// fleet-level aggregates: cluster goodput/SLO numbers, the placement
// histogram, shed/requeue/steal counters, the per-device health-breaker
// trajectories, and the fault-domain and integrity counters.
//
// Schema (kFleetReportSchemaVersion): every run renders the same sections
// and the same per-device fields; a mechanism that is off reports zeros and
// its config echo. The shape never depends on the configuration.
//
// Determinism contract: fleet_report_json renders byte-identically for a
// given report (doubles through obs::format_double, fixed field order,
// devices in index order), so fleet_report_digest — FNV-1a over that
// rendering — is the fingerprint the golden tests and CI diffs pin. Same
// config + seed => byte-identical report at any --jobs count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/report.hpp"

namespace hq::fleet {

/// The `schema_version` of fleet_report_json. Bump it whenever the rendered
/// shape changes: fleet sweep journals key on it, because their records
/// carry report digests.
inline constexpr int kFleetReportSchemaVersion = 2;

/// One device's slice of the fleet run: its full serving report plus the
/// fleet-level routing counters that the single-device report cannot know.
struct FleetDeviceStats {
  std::string name;  ///< device spec name (after fault degradation)
  /// Arrivals the placer routed here (initial placement, before any
  /// requeue/steal movement).
  std::uint64_t placed = 0;
  std::uint64_t requeued_in = 0;   ///< jobs moved here from quarantined peers
  std::uint64_t requeued_out = 0;  ///< jobs moved away when this device tripped
  std::uint64_t stolen_in = 0;     ///< jobs this device stole while idle
  std::uint64_t stolen_out = 0;    ///< queued jobs stolen by idle peers
  // Device health breaker (all zero / empty when disabled).
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_rejected = 0;
  std::string breaker_final_state;  ///< "closed" / "open" / "half-open"; empty = disabled
  // Fleet fault domains (all zero without lifecycle faults or hedging).
  std::uint64_t failed_over_in = 0;   ///< jobs failed over onto this device
  std::uint64_t failed_over_out = 0;  ///< jobs moved away when this device went down
  std::uint64_t hedges_run = 0;       ///< hedge attempts dispatched here
  std::uint64_t attempts_cancelled = 0;  ///< attempts cancelled here (failover + lost hedges)
  std::uint64_t lifecycle_downs = 0;  ///< down transitions (a crash counts once)
  // Integrity pipeline (all zero under Trust with corruption-free plans).
  std::uint64_t sdc_injected = 0;  ///< corrupted results this device produced
  std::uint64_t sdc_detected = 0;  ///< of those, caught by a comparison
  std::uint64_t sdc_blamed = 0;    ///< vote outcomes that blamed this device
  std::uint64_t verifications_run = 0;  ///< verify/tiebreak attempts run here
  double sdc_score = 0;      ///< final EWMA of blame attributions
  bool blocklisted = false;  ///< permanently removed by the integrity pipeline
  TimeNs blocklisted_at = 0;  ///< virtual time of the blocklist (0 = never)
  /// The per-device serving report (for a 1-device fleet, the report
  /// serve::Service returns).
  serve::ServeReport report;
};

/// The tally counts every job of the run: the devices' tallies plus the
/// fleet-owned shed_no_device and shed_failover_exhausted jobs.
struct FleetReport : serve::JobTally {
  // --- configuration echo --------------------------------------------------
  std::string workload;  ///< class names joined with '+'
  std::size_t num_devices = 0;
  std::string placement;
  double copy_penalty = 0;
  bool work_stealing = false;
  bool device_breaker_enabled = false;
  std::uint64_t seed = 0;

  // --- fleet job accounting (the counters are the JobTally base) ----------
  /// JobTally::admitted() and completed() frozen by serve::fill_slo (see
  /// ServeReport).
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  /// Queued jobs moved off a device whose health breaker tripped.
  std::uint64_t requeued = 0;
  /// Queued jobs taken by an idle device (work stealing).
  std::uint64_t stolen = 0;

  // --- SLO -----------------------------------------------------------------
  double goodput_per_sec = 0;
  double throughput_per_sec = 0;
  double deadline_miss_ratio = 0;

  // --- run totals ----------------------------------------------------------
  DurationNs total_time = 0;
  DurationNs drain_time = 0;
  Joules energy = 0;  ///< summed over devices
  Joules energy_per_completed = 0;

  // --- fleet health --------------------------------------------------------
  std::uint64_t device_breaker_trips = 0;
  std::uint64_t device_breaker_probes = 0;
  std::uint64_t device_breaker_rejected = 0;

  // --- fleet fault domains -------------------------------------------------
  bool hedging = false;
  int failover_budget = 0;
  std::uint64_t failed_over = 0;  ///< failover hops across the fleet
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedge_wins = 0;  ///< completions won by the hedge attempt
  std::uint64_t hedges_cancelled = 0;  ///< losing attempts of hedged jobs
  std::uint64_t attempts_cancelled = 0;  ///< all cancelled attempts (failover + hedge)

  // --- integrity pipeline ---------------------------------------------------
  std::string integrity_policy;  ///< "trust" / "spotcheck" / "dmr"
  double spotcheck_rate = 0;
  double sdc_blocklist_threshold = 0;
  /// Corrupted results produced fleet-wide. Exact partition invariant
  /// (fuzz-pinned): sdc_injected == sdc_detected + sdc_missed.
  std::uint64_t sdc_injected = 0;
  std::uint64_t sdc_detected = 0;  ///< caught by a verification comparison
  std::uint64_t sdc_missed = 0;    ///< served without any mismatching compare
  std::uint64_t reexecutions = 0;  ///< verify + tiebreak attempts dispatched
  std::uint64_t devices_blocklisted = 0;

  /// Per-device slices in index order; devices[d].placed is the placement
  /// histogram.
  std::vector<FleetDeviceStats> devices;
};

/// `report` with the fault-domain and integrity config echo of `baseline`.
/// An inert knob must leave a run's behaviour unchanged while the echo
/// still shows its value; copying the echo lets a check compare every
/// other byte of the two reports.
FleetReport with_config_echo_of(FleetReport report,
                                const FleetReport& baseline);

/// Human-readable multi-line summary (the hqserve fleet default output).
void render_fleet_report_text(std::ostream& os, const FleetReport& report);

/// Canonical JSON rendering (byte-identical per report; see header note).
void write_fleet_report_json(std::ostream& os, const FleetReport& report);
std::string fleet_report_json(const FleetReport& report);

/// FNV-1a digest of fleet_report_json — the run fingerprint pinned by the
/// golden fleet tests.
std::uint64_t fleet_report_digest(const FleetReport& report);

}  // namespace hq::fleet
