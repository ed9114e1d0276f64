// Final report of one fleet serving run (library hq_fleet).
//
// A FleetReport nests one full serve::ServeReport per device (the report
// of the jobs that device terminally owns) under
// fleet-level aggregates: cluster goodput/SLO numbers, the placement
// histogram, shed/requeue/steal counters, and the per-device health-breaker
// trajectories.
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
  // Fleet fault domains (all zero unless FleetReport::fault_domains;
  // rendered only then, keeping zero-chaos reports byte-identical).
  std::uint64_t failed_over_in = 0;   ///< jobs failed over onto this device
  std::uint64_t failed_over_out = 0;  ///< jobs moved away when this device went down
  std::uint64_t hedges_run = 0;       ///< hedge attempts dispatched here
  std::uint64_t attempts_cancelled = 0;  ///< attempts cancelled here (failover + lost hedges)
  std::uint64_t lifecycle_downs = 0;  ///< down transitions (a crash counts once)
  // Integrity pipeline (all zero unless FleetReport::integrity; rendered
  // only then, keeping pre-integrity reports byte-identical).
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

struct FleetReport {
  // --- configuration echo --------------------------------------------------
  std::string workload;  ///< class names joined with '+'
  std::size_t num_devices = 0;
  std::string placement;
  double copy_penalty = 0;
  bool work_stealing = false;
  bool device_breaker_enabled = false;
  std::uint64_t seed = 0;

  // --- fleet job accounting ------------------------------------------------
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_late = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_breaker = 0;
  /// Arrivals rejected because no healthy device existed (fleet-only
  /// terminal state; never attributed to a device).
  std::uint64_t shed_no_device = 0;
  std::uint64_t timed_out_queued = 0;
  std::uint64_t quarantined = 0;
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
  /// True when lifecycle faults, per-device fault plans, or hedging were
  /// configured (FleetConfig::fault_domains_active). Gates every
  /// fault-domain field in both renderings so zero-chaos reports stay
  /// byte-identical to pre-fault-domain output (the pinned goldens).
  bool fault_domains = false;
  bool hedging = false;
  int failover_budget = 0;
  /// Jobs dropped after exhausting the failover budget or the supply of
  /// healthy survivors (fleet-only terminal state, like shed_no_device).
  std::uint64_t shed_failover_exhausted = 0;
  std::uint64_t failed_over = 0;  ///< failover hops across the fleet
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedge_wins = 0;  ///< completions won by the hedge attempt
  std::uint64_t hedges_cancelled = 0;  ///< losing attempts of hedged jobs
  std::uint64_t attempts_cancelled = 0;  ///< all cancelled attempts (failover + hedge)

  // --- integrity pipeline ---------------------------------------------------
  /// True when the integrity pipeline was active
  /// (FleetConfig::integrity_active). Gates every integrity field in both
  /// renderings so Trust-plus-clean-plans reports stay byte-identical to
  /// pre-integrity output (the pinned goldens).
  bool integrity = false;
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

  /// placement_histogram[d] == devices[d].placed (kept flat for reports).
  std::vector<std::uint64_t> placement_histogram;
  std::vector<FleetDeviceStats> devices;
};

/// Human-readable multi-line summary (the hqserve fleet default output).
void render_fleet_report_text(std::ostream& os, const FleetReport& report);

/// Canonical JSON rendering (byte-identical per report; see header note).
void write_fleet_report_json(std::ostream& os, const FleetReport& report);
std::string fleet_report_json(const FleetReport& report);

/// FNV-1a digest of fleet_report_json — the run fingerprint pinned by the
/// golden fleet tests.
std::uint64_t fleet_report_digest(const FleetReport& report);

}  // namespace hq::fleet
