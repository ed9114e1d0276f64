// Differential / metamorphic fuzzing of the simulator (library hq_fuzz).
//
// Each fuzz case is a seeded random workload (application mix, instance
// counts, launch order, stream count, transfer chunking, memory-sync and
// blocking-transfer modes, launch stagger, functional vs timing run). The
// case runs under several scheduling configurations and the results are
// compared against metamorphic oracles that must hold for ANY workload:
//
//   - Determinism: the same seed run twice yields an identical trace
//     digest, makespan, energy, and functional outputs.
//   - Serialization: the fully serialized run (NS = 1) is never faster
//     than the concurrent run.
//   - Hyper-Q: the Fermi single-work-queue ablation is never faster than
//     the 32-queue Hyper-Q run.
//   - Work conservation: every scheduling mode performs the same device
//     work (kernel count, copy counts, bytes per direction).
//   - Eq. 1–2 bounds: an application's effective transfer latency is at
//     least its own service time and at most the run's makespan.
//   - Energy: phase energy lies within [idle, plausible-peak] power x time.
//   - Functional equivalence: outputs verify and their digests are
//     byte-identical across every scheduling mode.
//
// With FuzzOptions::fault_rate > 0 every case additionally runs under a
// seed-derived transient fault plan and checks the fault-mode oracles:
// attaching a zero-rate plan is zero-perturbation (identical digest), the
// faulted run is deterministic, never materially faster than the fault-free
// run, performs identical device work, injects at least one observable
// fault (at rate 1), never quarantines (transient faults stay below the
// retry budget), and — in functional cases — produces output digests
// identical to the fault-free run.
//
// Every run also carries the hq_check InvariantChecker (via the harness),
// so scheduler/copy-engine/accounting invariant violations surface here as
// case failures too.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "hyperq/harness.hpp"
#include "hyperq/schedule.hpp"
#include "rodinia/registry.hpp"
#include "serve/service.hpp"

namespace hq::check {

/// One generated workload + configuration, fully determined by its seed.
struct FuzzCase {
  std::uint64_t seed = 0;
  std::vector<std::string> type_names;
  std::vector<rodinia::AppParams> params;
  std::vector<int> counts;  ///< instances per type
  fw::Order order = fw::Order::NaiveFifo;
  std::vector<fw::Slot> slots;  ///< concrete launch order
  /// The Hyper-Q (concurrent) configuration; oracle runs derive the
  /// serialized and Fermi variants from it.
  fw::HarnessConfig config;

  /// One-line human-readable description, e.g. for failure reports.
  std::string summary() const;
};

/// Deterministically expands a case seed into a workload + configuration.
FuzzCase generate_case(std::uint64_t case_seed);

/// One generated serving workload (open arrivals under overload knobs),
/// fully determined by its seed. Runs against the serving-mode oracles:
///
///   - Determinism: the same config twice yields a byte-identical report.
///   - Accounting: admitted = completed + shed + timed-out + quarantined,
///     and shed jobs never consume device time (no dispatch, no spans).
///   - Queue-cap monotonicity: raising the admission cap never decreases
///     the number of completed jobs, and never changes arrivals.
///   - Deadline monotonicity: with expiry off and drop-tail shedding,
///     deadlines are pure accounting — tightening one never increases
///     goodput and never perturbs the trace digest.
///   - Zero perturbation: with every overload feature off, attaching a
///     zero-rate fault plan and the metrics registry leaves the trace
///     digest and the arrivals unchanged.
struct ServeFuzzCase {
  std::uint64_t seed = 0;
  serve::ServiceConfig config;

  /// One-line human-readable description, e.g. for failure reports.
  std::string summary() const;
};

/// Deterministically expands a case seed into a serving configuration.
ServeFuzzCase generate_serve_case(std::uint64_t case_seed);

/// One generated fleet workload (the serve case's config sharded over a
/// 1–3 device fleet with random placement / stealing / device-breaker
/// knobs, sometimes heterogeneous). Runs against the fleet oracles:
///
///   - Determinism: the same config twice yields a byte-identical
///     FleetReport (JSON and digest).
///   - Conservation: fleet arrivals equal the sum of every terminal state
///     (including the fleet-only shed_no_device), and per-device arrivals
///     plus shed_no_device reproduce the fleet total.
///   - Placement permutation safety: every placement policy yields valid
///     conservation, even with a transient fault plan and the device
///     health breaker active.
///   - Fleet-size monotonicity (flagged, not gating): a larger fleet under
///     the same load should not complete fewer jobs; violations are
///     appended to the case summary rather than failing the case.
struct FleetFuzzCase {
  std::uint64_t seed = 0;
  fleet::FleetConfig config;

  /// One-line human-readable description, e.g. for failure reports.
  std::string summary() const;
};

/// Deterministically expands a case seed into a fleet configuration.
FleetFuzzCase generate_fleet_case(std::uint64_t case_seed);

struct FuzzOptions {
  /// Master seed; per-iteration case seeds derive from it.
  std::uint64_t seed = 1;
  int iterations = 100;
  /// Worker threads for the iteration loop; 1 = serial, 0 = all hardware
  /// threads. Case seeds, the report, and the progress-callback sequence
  /// are identical at any job count (cases are generated from the master
  /// seed up front and reported in iteration order).
  int jobs = 1;
  /// Scales the per-case transient fault plan in [0, 1]; 0 disables the
  /// fault-mode oracles entirely.
  double fault_rate = 0.0;
  /// Serving-mode iterations appended after the harness cases (their
  /// failure reports use iteration indices `iterations..`). 0 disables.
  int serve_iterations = 0;
  /// Fleet-mode iterations appended after the serving cases (their failure
  /// reports use iteration indices `iterations + serve_iterations..`).
  /// 0 disables.
  int fleet_iterations = 0;
  /// Probability in [0, 1] that each fleet device receives a seed-derived
  /// lifecycle fault (crash / flap / degrade schedule). When > 0 every
  /// fleet iteration additionally runs the chaos oracles
  /// (run_fleet_chaos_case): no-job-lost conservation under arbitrary
  /// crash schedules, failover determinism, hedge-off/inert-knob runs
  /// byte-identical to the baseline, and all-devices-dead draining
  /// cleanly. 0 disables.
  double chaos_rate = 0.0;
  /// Probability in [0, 1] that each fleet device receives a seed-derived
  /// silent-data-corruption plan. When > 0 every fleet iteration
  /// additionally runs the SDC integrity oracles (run_fleet_sdc_case):
  /// conservation with verification re-executions counted as attempts, the
  /// exact sdc_injected == sdc_detected + sdc_missed partition, two-run
  /// byte determinism, inert-plan/Trust runs byte-identical to the
  /// baseline, and no placements on a blocklisted device after its
  /// blocklist time. 0 disables.
  double sdc_rate = 0.0;
};

struct FuzzFailure {
  int iteration = 0;
  std::uint64_t case_seed = 0;
  std::string case_summary;
  std::vector<std::string> problems;
};

struct FuzzReport {
  int iterations_run = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
  std::string to_string() const;
};

class Fuzzer {
 public:
  /// Called after each case with (iteration, case seed, summary, clean).
  using Progress =
      std::function<void(int, std::uint64_t, const std::string&, bool)>;

  explicit Fuzzer(FuzzOptions options = {}) : options_(options) {}

  /// Runs options.iterations generated cases.
  FuzzReport run(const Progress& progress = nullptr);

  /// Runs every oracle for one case seed; returns the violated oracles
  /// (empty = clean). Used for replaying a failure and by tests.
  static std::vector<std::string> run_case(std::uint64_t case_seed,
                                           std::string* summary_out = nullptr);
  /// Same, with the fault-mode oracles at the given intensity.
  static std::vector<std::string> run_case(std::uint64_t case_seed,
                                           double fault_rate,
                                           std::string* summary_out);

  /// Runs the serving-mode oracles for one case seed; returns the violated
  /// oracles (empty = clean).
  static std::vector<std::string> run_serve_case(
      std::uint64_t case_seed, std::string* summary_out = nullptr);

  /// Runs the fleet-mode oracles for one case seed; returns the violated
  /// oracles (empty = clean). Non-gating flags (fleet-size monotonicity)
  /// are appended to the summary instead.
  static std::vector<std::string> run_fleet_case(
      std::uint64_t case_seed, std::string* summary_out = nullptr);

  /// Runs the fleet chaos oracles for one case seed: the fleet case's
  /// config plus a seed-derived device-lifecycle fault schedule (each
  /// device crashes, flaps, or degrades with probability `chaos_rate`) and
  /// random failover/hedging knobs. Checks no-job-lost conservation
  /// (including shed_failover_exhausted), two-run byte determinism, the
  /// inert-knob identity (hedging off + all-disabled plans ==
  /// byte-identical baseline report), and the all-devices-dead clean
  /// drain. Returns the violated oracles (empty = clean).
  static std::vector<std::string> run_fleet_chaos_case(
      std::uint64_t case_seed, double chaos_rate,
      std::string* summary_out = nullptr);

  /// Runs the SDC integrity oracles for one case seed: the fleet case's
  /// config plus a seed-derived per-device corruption schedule (each
  /// device corrupts copies, ramps kernel corruption, or goes stuck-at
  /// with probability `sdc_rate`) under a random non-Trust integrity
  /// policy. Checks conservation with re-executions counted as attempts,
  /// the exact detected + missed == injected partition, two-run byte
  /// determinism, the inert-plan identity (all-clean plans + Trust ==
  /// byte-identical baseline report), and that a blocklisted device
  /// receives no placements, hops, or dispatches after its blocklist
  /// time. Returns the violated oracles (empty = clean).
  static std::vector<std::string> run_fleet_sdc_case(
      std::uint64_t case_seed, double sdc_rate,
      std::string* summary_out = nullptr);

  /// The seed-derived transient-only plan fault-mode cases run under
  /// (stalls, slowdowns, throttle windows, retryable launch failures; no
  /// poison/offline/alloc faults, so no quarantine is ever legitimate).
  static fault::FaultPlan case_fault_plan(std::uint64_t case_seed,
                                          double fault_rate);

 private:
  FuzzOptions options_;
};

}  // namespace hq::check
