// Deterministic fault injection for the device and runtime models
// (library hq_fault).
//
// A FaultPlan is a declarative, seed-driven description of degraded-service
// conditions: copy-engine stalls and per-transfer slowdowns (ECC-retry
// style), transient kernel-launch failures surfaced as cudart error
// statuses, SMX offlining, pinned host-allocation failures, and power-cap
// throttle windows. The FaultInjector turns a plan into concrete decisions.
//
// Determinism contract: every decision is a pure function of
// (plan.seed, fault domain, operation key) hashed through FNV-1a — never of
// wall-clock time, thread identity, or allocation addresses — so the same
// plan + seed reproduces byte-identical runs at any --jobs count. A plan
// whose rates are all zero draws nothing and emits nothing: attaching the
// injector is then provably zero-perturbation (pinned golden digests and
// sweep metrics JSON stay bit-identical).
//
// Accounting contract: every injected fault fires
// DeviceObserver::on_fault_injected on the attached observer chain and
// increments FaultStats. The invariant checker cross-checks the two
// (InvariantChecker::finalize_faults), so faults can never be silently
// absorbed by the model.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/units.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/observer.hpp"
#include "gpusim/types.hpp"

namespace hq::fault {

/// Declarative description of the faults to inject into one run. All rates
/// are probabilities in [0, 1] evaluated once per eligible operation.
struct FaultPlan {
  /// Plans are inert unless enabled; an enabled plan with zero rates is the
  /// zero-perturbation baseline used to prove the injector adds nothing.
  bool enabled = false;
  std::uint64_t seed = 0;

  // --- copy engines --------------------------------------------------------
  /// Probability that one DMA transaction stalls for copy_stall_ns.
  double copy_stall_rate = 0.0;
  DurationNs copy_stall_ns = 200 * kMicrosecond;
  /// Probability that one DMA transaction is served copy_slowdown_factor
  /// times slower (ECC-retry style degradation); factor >= 1.
  double copy_slowdown_rate = 0.0;
  double copy_slowdown_factor = 2.0;

  // --- kernel launches -----------------------------------------------------
  /// Probability that one launch-submission attempt fails transiently with
  /// Status::LaunchFailure. The failure count per launch is capped below
  /// the retry budget, so retried launches always eventually succeed and
  /// functional output digests match the fault-free run.
  double launch_failure_rate = 0.0;
  /// App id whose launches always fail: retries exhaust, the stream goes
  /// into fault state, and the harness quarantines the app (-1 = none).
  std::int32_t poison_app = -1;

  // --- allocations ---------------------------------------------------------
  /// Probability that one pinned host-allocation attempt fails with
  /// Status::OutOfMemory (the caller retries a bounded number of times).
  double host_alloc_failure_rate = 0.0;

  // --- compute degradation -------------------------------------------------
  /// Number of SMXs taken offline before the run (clamped to leave >= 1).
  int offline_smx = 0;

  // --- power-cap throttle windows ------------------------------------------
  /// While (now % throttle_period) < throttle_duration, copy service is
  /// stretched by throttle_factor (>= 1). 0 period/duration disables.
  DurationNs throttle_period = 0;
  DurationNs throttle_duration = 0;
  double throttle_factor = 1.0;

  // --- device lifecycle (fleet fault domains) ------------------------------
  /// Permanent crash: the device goes down at crash_at and never returns
  /// (0 = never). The fleet layer fails queued/running jobs over to
  /// surviving devices.
  TimeNs crash_at = 0;
  /// Flapping: the device is down for roughly flap_down at the start of
  /// every flap_period cycle (both > 0 to enable). Each cycle's actual down
  /// duration is drawn deterministically from (seed, cycle) and jittered by
  /// +-flap_jitter (a fraction in [0, 1]), so fleets of flapping devices
  /// stay decorrelated yet byte-reproducible.
  DurationNs flap_period = 0;
  DurationNs flap_down = 0;
  double flap_jitter = 0.0;
  /// Sustained degradation: from degrade_at on, every DMA transaction is
  /// served degrade_copy_factor (>= 1) times slower — a permanently derated
  /// copy clock. Counted and observed through the throttle fault channel.
  TimeNs degrade_at = 0;
  double degrade_copy_factor = 1.0;

  // --- silent data corruption (fleet integrity fault domain) ----------------
  /// Probability that one consumed result digest had its DtoH payload
  /// digest bit-flipped (a single flipped bit of the 64-bit digest).
  double sdc_copy_rate = 0.0;
  /// Probability that one kernel's functional output digest was corrupted
  /// (a full scrambled digest, not a single bit). When sdc_at > 0 the
  /// effective rate ramps linearly from 0 at sdc_at to the full rate at
  /// 2 * sdc_at (aging silicon: corruption sets in and worsens).
  double sdc_kernel_rate = 0.0;
  TimeNs sdc_at = 0;
  /// Stuck-at mode: from sdc_stuck_at on, EVERY consumed result digest is
  /// corrupted until the device is blocklisted (0 = never). Models a device
  /// that lies on every job.
  TimeNs sdc_stuck_at = 0;

  /// Enabled plan with every rate zero (the zero-perturbation baseline).
  static FaultPlan zero() {
    FaultPlan plan;
    plan.enabled = true;
    return plan;
  }

  /// True when any fault can actually fire.
  bool any_faults() const;
  /// True when a device-lifecycle fault (crash, flap, or sustained
  /// degradation) is configured.
  bool any_lifecycle() const;
  /// True when a crash or flap fault can take the device down; the fleet
  /// layer schedules down/up transitions for such plans and fails their
  /// work over to surviving devices.
  bool any_down_transitions() const;
  /// True when silent-data-corruption faults are configured; the fleet
  /// integrity pipeline draws per-result corruption for such plans.
  bool any_sdc() const;
};

/// Parses the compact `key=value[,key=value...]` plan syntax used by
/// `hqrun --fault-plan` (the plan's codec table; see EXPERIMENTS.md).
/// Integers are base 10 and `*-us` durations take up to three decimals.
/// The keyword "zero" yields FaultPlan::zero(); "disabled" (or "none")
/// yields an inert disabled plan — used by per-device fault-plan files for
/// fault-free devices. Returns nullopt and fills *error, naming the key, on
/// malformed input.
std::optional<FaultPlan> parse_fault_plan(const std::string& text,
                                          std::string* error = nullptr);

/// Canonical `key=value,...` rendering (the codec text of the plan's
/// table); parse(to_string(p)) == p, durations included to the ns. Used for
/// reporting, and nested in the harness and serving configs' grid-key text.
std::string fault_plan_to_string(const FaultPlan& plan);

/// The plan's codec table (common/codec.hpp).
std::span<const codec::Field<FaultPlan>> codec_fields(const FaultPlan&);

/// Deterministic silent-data-corruption decision for one consumed result
/// digest: returns 0 when the result is clean, or a nonzero XOR mask to
/// apply to the job's functional output digest. Pure function of
/// (plan.seed, now, job_key, sub) — the fleet integrity pipeline owns
/// counting and attribution (shard-level, not device-level), so the
/// invariant checker's per-device fault cross-count is unaffected.
/// Precedence: stuck-at (now >= sdc_stuck_at > 0) corrupts every result
/// with a scrambled mask; otherwise a copy-digest bit-flip is drawn at
/// sdc_copy_rate; otherwise a kernel-output scramble is drawn at
/// sdc_kernel_rate (ramped after sdc_at). `kind_out` (optional) receives
/// which SDC kind fired when the mask is nonzero.
std::uint64_t sdc_corruption_mask(const FaultPlan& plan, TimeNs now,
                                  std::uint64_t job_key, std::uint64_t sub,
                                  gpu::ObservedFault* kind_out = nullptr);

/// Counters for every fault the injector actually fired.
struct FaultStats {
  std::uint64_t copy_stalls = 0;
  DurationNs copy_stall_total_ns = 0;
  std::uint64_t copy_slowdowns = 0;
  std::uint64_t throttled_copies = 0;
  std::uint64_t launch_failures = 0;
  std::uint64_t launch_aborts = 0;
  std::uint64_t host_alloc_failures = 0;
  std::uint64_t sdc_copy_corruptions = 0;
  std::uint64_t sdc_kernel_corruptions = 0;

  /// Total number of injected fault events (matches the number of
  /// on_fault_injected callbacks fired).
  std::uint64_t total() const {
    return copy_stalls + copy_slowdowns + throttled_copies + launch_failures +
           launch_aborts + host_alloc_failures + sdc_copy_corruptions +
           sdc_kernel_corruptions;
  }
  /// Expected on_fault_injected count for one observed fault kind.
  std::uint64_t count_for(gpu::ObservedFault kind) const;
};

/// One application removed from the schedule by the recovery layer.
struct QuarantinedApp {
  std::int32_t app_id = -1;
  std::string type;    ///< application name, e.g. "gaussian"
  std::string reason;  ///< e.g. launch-aborted, allocation-failed: ...
};

/// Graceful-degradation summary attached to every HarnessResult: which apps
/// were quarantined (the rest of the schedule still completed) and what the
/// injector actually fired.
struct DegradedReport {
  std::vector<QuarantinedApp> quarantined;
  FaultStats stats;

  bool degraded() const { return !quarantined.empty(); }
};

/// Turns a FaultPlan into deterministic per-operation decisions and fires
/// the corresponding observer events. One injector serves one run.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// Observer chain that receives on_fault_injected (normally the same
  /// fanout the device reports to); nullptr disables event emission but
  /// stats are still counted.
  void set_observer(gpu::DeviceObserver* observer) { observer_ = observer; }

  /// Device spec with plan.offline_smx SMXs removed (at least 1 remains).
  gpu::DeviceSpec degraded(gpu::DeviceSpec spec) const;

  /// Extra service time for one DMA transaction (Device copy-fault hook).
  /// `base` is the unperturbed service time.
  DurationNs copy_service_penalty(TimeNs now, gpu::CopyDirection dir,
                                  gpu::OpId op, Bytes bytes, DurationNs base);

  /// Number of launch-submission attempts that fail before one succeeds,
  /// drawn once per launch. Capped at max_retries so the final attempt of a
  /// transient failure always succeeds; a poisoned app returns
  /// max_retries + 1 (every attempt fails, forcing a launch abort).
  int launch_failures_for(std::int32_t app_id, std::uint64_t op_key,
                          int max_retries) const;

  /// Records one rejected launch attempt / one exhausted retry budget.
  /// `app_id` attributes the event to an application instance (-1 when
  /// unattributed); the launch-fault hook receives it so recovery layers
  /// (e.g. the serving circuit breaker) can track failures per class.
  void note_launch_failure(TimeNs now, std::uint64_t op_key,
                           std::int32_t app_id = -1);
  void note_launch_abort(TimeNs now, std::uint64_t op_key,
                         std::int32_t app_id = -1);

  /// Called on every launch fault with (now, app_id, aborted). Purely
  /// observational: the hook must not mutate simulation state.
  using LaunchFaultHook =
      std::function<void(TimeNs, std::int32_t, bool aborted)>;
  void set_launch_fault_hook(LaunchFaultHook hook) {
    launch_fault_hook_ = std::move(hook);
  }

  /// True when pinned host allocation attempt `alloc_key` should fail.
  bool host_alloc_fails(TimeNs now, std::uint64_t alloc_key);

 private:
  /// Uniform draw in [0, 1) from (seed, domain, key, sub).
  double draw(std::uint64_t domain, std::uint64_t key,
              std::uint64_t sub = 0) const;
  void emit(TimeNs now, gpu::ObservedFault kind, std::uint64_t key,
            DurationNs penalty);

  FaultPlan plan_;
  FaultStats stats_;
  gpu::DeviceObserver* observer_ = nullptr;
  LaunchFaultHook launch_fault_hook_;
};

}  // namespace hq::fault
