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
//
// A serving case (serve, fleet, and the fleet's chaos and SDC layers) is a
// config: a draw maps a case seed to one, and a check runs a mode's
// oracles on (case seed, config) and returns the violated oracles (empty =
// clean). A failure prints the config as codec text (common/codec.hpp),
// which replays through the same check:
//
//   Fuzzer::check_chaos(seed, parse_fleet_case(text));
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
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

/// The serving workload (open arrivals under overload knobs) a case seed
/// draws.
serve::ServiceConfig draw_serve_case(std::uint64_t case_seed);

/// The fleet workload a case seed draws: the serve case's config sharded
/// over a 1–3 device fleet with random placement / stealing /
/// device-breaker knobs, sometimes heterogeneous.
fleet::FleetConfig draw_fleet_case(std::uint64_t case_seed);

/// The fleet case plus the chaos layer: each device crashes, flaps, or
/// degrades with probability `chaos_rate`, under random failover and
/// hedging knobs.
fleet::FleetConfig draw_chaos_case(std::uint64_t case_seed, double chaos_rate);

/// The fleet case plus the SDC layer: each device corrupts copies, ramps
/// kernel corruption, or goes stuck-at with probability `sdc_rate`, under
/// a random non-Trust integrity policy, with the lifecycle tracer on.
fleet::FleetConfig draw_sdc_case(std::uint64_t case_seed, double sdc_rate);

/// A chaos or SDC case with its layer taken off: every layer field back at
/// its FleetConfig{} default and the metrics registry off again, as the
/// serve draw leaves it. For a drawn case this is the fleet case.
fleet::FleetConfig fleet_case_of(fleet::FleetConfig layered);

/// A failure's codec text as a runnable config: codec::parse, then each
/// class factory rebuilt (rodinia::make_app) from its type and params
/// record. Throws hq::Error on text that does not parse.
serve::ServiceConfig parse_serve_case(std::string_view text);
fleet::FleetConfig parse_fleet_case(std::string_view text);

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
  /// Per-device probability in [0, 1] of the chaos layer; > 0 adds
  /// check_chaos on draw_chaos_case to every fleet iteration. 0 disables.
  double chaos_rate = 0.0;
  /// Per-device probability in [0, 1] of the SDC layer; > 0 adds check_sdc
  /// on draw_sdc_case to every fleet iteration. 0 disables.
  double sdc_rate = 0.0;
};

/// The iteration kinds of a run, in case-seed order.
enum class FuzzMode { Harness, Serve, Fleet };

/// One check that found problems.
struct FuzzFailure {
  int iteration = 0;
  std::uint64_t case_seed = 0;
  /// "harness", "serve", "fleet", "chaos" or "sdc".
  std::string check;
  /// The case: the harness case's summary, or the codec text of the serve
  /// or fleet config the check ran.
  std::string case_text;
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

  /// Runs one iteration's checks: the harness case, the serve case, or the
  /// fleet case plus the chaos and SDC layers `options` turns on. Returns
  /// one failure (iteration 0) per check that found problems; *summary_out
  /// names the checks and the case seed (the harness case's summary) and
  /// carries any non-gating flag.
  static std::vector<FuzzFailure> run_iteration(FuzzMode mode,
                                                std::uint64_t case_seed,
                                                const FuzzOptions& options,
                                                std::string* summary_out);

  /// Runs every oracle for one case seed; returns the violated oracles
  /// (empty = clean). Used for replaying a failure and by tests.
  static std::vector<std::string> run_case(std::uint64_t case_seed,
                                           std::string* summary_out = nullptr);
  /// Same, with the fault-mode oracles at the given intensity.
  static std::vector<std::string> run_case(std::uint64_t case_seed,
                                           double fault_rate,
                                           std::string* summary_out);

  /// The serving-mode oracles:
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
  static std::vector<std::string> check_serve(
      std::uint64_t case_seed, const serve::ServiceConfig& config);

  /// The fleet oracles:
  ///   - Determinism: the same config twice yields a byte-identical
  ///     FleetReport (JSON and digest).
  ///   - Conservation (shared with the chaos and SDC checks): fleet
  ///     arrivals equal JobTally::terminal(), per-device arrivals plus the
  ///     fleet-owned sheds reproduce the fleet total, and the per-device
  ///     integrity counters reproduce the fleet's.
  ///   - Observability: attaching telemetry, the lifecycle tracer and
  ///     fleet metrics leaves the report bytes unchanged, and every export
  ///     is deterministic.
  ///   - Placement permutation safety: every placement policy conserves
  ///     under the case seed's transient fault plan with the device health
  ///     breaker on.
  ///   - Fleet-size monotonicity (flagged, not gating): a larger fleet
  ///     under the same load should not complete fewer jobs. Runs only
  ///     when `flag` is given, and writes a violation there.
  static std::vector<std::string> check_fleet(
      std::uint64_t case_seed, const fleet::FleetConfig& config,
      std::string* flag = nullptr);

  /// The chaos oracles on a fleet config with lifecycle-fault plans:
  /// no-job-lost conservation (including shed_failover_exhausted),
  /// determinism, the inert-layer identity (below), the failover shed-back
  /// run (every device flapping or crashing: victims shed after failing
  /// back onto a device they ran on keep their spans, while shed jobs that
  /// never dispatched stay span-free), and the all-devices-dead clean
  /// drain.
  static std::vector<std::string> check_chaos(
      std::uint64_t case_seed, const fleet::FleetConfig& config);

  /// The SDC oracles on a fleet config with corruption plans: conservation
  /// with re-executions counted as attempts, the exact detected + missed ==
  /// injected partition, determinism, the inert-layer identity (below), and
  /// that a blocklisted device receives no placements, hops, or dispatches
  /// after its blocklist time.
  ///
  /// Inert-layer identity (chaos and SDC): every plan disabled, hedging
  /// off and the Trust policy reproduce fleet_case_of(config) byte for
  /// byte, config echo aside.
  static std::vector<std::string> check_sdc(std::uint64_t case_seed,
                                            const fleet::FleetConfig& config);

  /// The seed-derived transient-only plan fault-mode cases run under
  /// (stalls, slowdowns, throttle windows, retryable launch failures; no
  /// poison/offline/alloc faults, so no quarantine is ever legitimate).
  static fault::FaultPlan case_fault_plan(std::uint64_t case_seed,
                                          double fault_rate);

 private:
  FuzzOptions options_;
};

}  // namespace hq::check
