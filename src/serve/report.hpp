// Final report of one serving run (library hq_serve).
//
// The report is the drain-time summary the serving layer hands back:
// admission/SLO accounting (goodput vs raw throughput, deadline misses,
// shed/timeout/quarantine breakdown), per-class breaker trajectories,
// controller activity, and the run-level energy/occupancy numbers.
//
// Determinism contract: report_json renders byte-identically for a given
// report (doubles through obs::format_double, fixed field order, classes in
// class-index order), so `report_digest` — FNV-1a over that rendering — is
// the fingerprint the determinism tests and CI diffs pin. Same config +
// seed => byte-identical report at any --jobs count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "serve/job_tally.hpp"

namespace hq::serve {

/// Per-application-class slice of the accounting (the tally of the
/// device's jobs of this class) plus the class breaker's final trajectory.
struct ClassStats : JobTally {
  std::string name;
  int priority = 0;
  // Breaker counters (all zero when the breaker is disabled).
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_rejected = 0;
  std::string breaker_final_state;  ///< "closed" / "open" / "half-open"
};

/// The tally is the accounting of the jobs the device terminally owns; a
/// device never owns a fleet-owned (shed_no_device, shed_failover_exhausted)
/// job, so the renderers leave those two counters out.
struct ServeReport : JobTally {
  // --- configuration echo --------------------------------------------------
  std::string workload;  ///< class names joined with '+'
  int num_streams = 0;
  bool memory_sync = false;
  std::uint64_t seed = 0;
  DurationNs window = 0;
  DurationNs mean_interarrival = 0;
  DurationNs deadline = 0;  ///< relative per-job deadline; 0 = none
  std::size_t queue_cap = 0;
  std::size_t max_inflight = 0;
  std::string shed_policy;
  bool expire_queued = false;
  bool controller_enabled = false;
  bool breaker_enabled = false;
  std::string fault_plan;  ///< canonical plan string, or "disabled"

  // --- job accounting (the counters are the JobTally base) ----------------
  /// JobTally::admitted() and completed() frozen by fill_slo; these fields
  /// hide the functions, so `report.completed` reads the stored value.
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;

  // --- SLO -----------------------------------------------------------------
  /// Jobs that completed within their deadline, per second of total time.
  double goodput_per_sec = 0;
  /// All completed jobs per second of total time (late ones included).
  double throughput_per_sec = 0;
  /// (completed_late + timed_out_queued) / admitted; 0 when nothing admitted.
  double deadline_miss_ratio = 0;

  // --- latency -------------------------------------------------------------
  DurationNs mean_turnaround = 0;  ///< arrival -> completion, completed jobs
  DurationNs p95_turnaround = 0;
  DurationNs max_turnaround = 0;
  DurationNs mean_queue_wait = 0;  ///< arrival -> dispatch, dispatched jobs
  DurationNs max_queue_wait = 0;
  std::size_t peak_queue_depth = 0;
  std::size_t peak_inflight = 0;

  // --- run totals ----------------------------------------------------------
  DurationNs total_time = 0;  ///< admission window + drain
  DurationNs drain_time = 0;  ///< time past admission close to full drain
  Joules energy = 0;
  Joules energy_per_completed = 0;
  double average_occupancy = 0;

  // --- control loops -------------------------------------------------------
  std::uint64_t controller_engagements = 0;
  std::uint64_t controller_releases = 0;
  /// Jobs forced into pseudo-burst transfers by the controller (not counting
  /// runs configured with memory_sync on globally).
  std::uint64_t pseudo_burst_jobs = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_rejected = 0;
  std::uint64_t faults_injected = 0;

  std::vector<ClassStats> classes;
  std::uint64_t trace_digest = 0;
};

/// Sets a ServeReport's or FleetReport's total time and energy and derives
/// the SLO block both share (admitted, completed, goodput, throughput,
/// deadline-miss ratio, energy per completed job) from the report's own
/// tally.
template <class Report>
void fill_slo(Report& report, DurationNs total_time, Joules energy) {
  const JobTally& tally = report;
  report.total_time = total_time;
  report.energy = energy;
  report.admitted = tally.admitted();
  report.completed = tally.completed();
  if (total_time > 0) {
    const double seconds = to_seconds(total_time);
    report.goodput_per_sec = static_cast<double>(tally.completed_ok) / seconds;
    report.throughput_per_sec = static_cast<double>(report.completed) / seconds;
  }
  if (report.admitted > 0) {
    report.deadline_miss_ratio =
        static_cast<double>(tally.completed_late + tally.timed_out_queued) /
        static_cast<double>(report.admitted);
  }
  if (report.completed > 0) {
    report.energy_per_completed =
        energy / static_cast<double>(report.completed);
  }
}

/// Human-readable multi-line summary (the hqserve default output).
void render_report_text(std::ostream& os, const ServeReport& report);

/// Canonical JSON rendering (byte-identical per report; see header note).
void write_report_json(std::ostream& os, const ServeReport& report);
std::string report_json(const ServeReport& report);

/// FNV-1a digest of report_json — the run fingerprint pinned by the
/// determinism tests.
std::uint64_t report_digest(const ServeReport& report);

}  // namespace hq::serve
