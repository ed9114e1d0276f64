// Cluster-scale serving: shard the serving layer across a simulated device
// fleet (library hq_fleet).
//
// FleetService runs N per-device serving engines (each with its own
// gpu::Device, cudart runtime, stream pool, HtoD mutex, admission queue,
// overload controller, per-class breakers, fault injector, trace recorder)
// under ONE virtual clock and ONE arrival process. A deterministic placement policy
// (src/fleet/placement.hpp) routes every admitted arrival to a device;
// fleet-only mechanisms move work afterwards:
//
//   * per-device health breakers (fault::CircuitBreaker over job outcomes):
//     a device whose jobs keep quarantining trips open and is quarantined —
//     no policy places on it and its queued jobs are rebalanced to healthy
//     peers (counted as requeued). A half-open probe job re-admits it.
//   * optional work stealing: a device that drains its own queue steals the
//     newest queued job from the deepest peer queue (pop_back — preserving
//     the victim's FIFO latency order) and runs it itself.
//   * when no healthy device exists, arrivals are shed as
//     JobState::ShedNoDevice (a fleet-only terminal state).
//
// Fleet fault domains (device lifecycle chaos) layer three more mechanisms
// on top, all on the virtual clock and fully deterministic:
//
//   * device-lifecycle faults: a FaultPlan can crash a device permanently
//     at a virtual time, flap it down/up on a seeded schedule, or derate
//     its copy bandwidth from a point in time (src/fault/lifecycle.hpp).
//     Per-device plans come from `device_fault_plans`.
//   * in-flight failover: when a device goes down, its queued jobs AND its
//     running jobs are requeued to healthy survivors through the placement
//     policy, consuming a per-job `failover_budget`. A job whose budget (or
//     the supply of survivors) runs out ends in the fleet-only terminal
//     state JobState::ShedFailoverExhausted. Cancelled attempts drain as
//     zombies — their device work stands in the trace, but their outcome is
//     discarded.
//   * hedged dispatch: when a dispatched job runs past `hedge_threshold`
//     times its class's running mean service time, a second attempt is
//     dispatched on an idle healthy peer. First completion wins; the loser
//     is cancelled deterministically.
//
// serve::Service is this engine at one device with every fleet-only
// feature off (src/fleet/service.cpp).
//
// Fault decorrelation: device d > 0 runs the base fault plan with its seed
// offset by d, so a heterogeneous-fault fleet stays deterministic without
// every device failing in lockstep. Device 0 uses the plan verbatim.
// Non-empty `device_fault_plans` replaces this scheme: device d runs
// device_fault_plans[d] exactly as given (disabled plans run fault-free).
//
// Determinism contract: same config + seed => byte-identical FleetReport
// JSON and digest at any --jobs count (jobs only shard independent runs).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "fleet/placement.hpp"
#include "fleet/report.hpp"
#include "obs/telemetry.hpp"
#include "serve/lifecycle.hpp"
#include "serve/service.hpp"

namespace hq::fleet {

/// How the fleet checks completed jobs for silent data corruption.
enum class IntegrityPolicy : std::uint8_t {
  /// Every completed result is accepted as correct: its digest is still
  /// consumed (SDC faults are counted as missed), but nothing is
  /// re-executed, so the schedule is the one without the pipeline.
  Trust,
  /// A seeded fraction of completed jobs (`spotcheck_rate`) is re-executed
  /// on a different device and the two functional digests compared.
  SpotCheck,
  /// Dual modular redundancy: every completed job is re-executed on a
  /// different device; a mismatch is broken by a third execution
  /// (majority-of-2-then-tiebreak vote).
  Dmr,
};

const char* integrity_policy_name(IntegrityPolicy policy);

struct FleetConfig {
  /// The per-device serving configuration (classes, arrival process, queue
  /// bounds, controller, class breakers, fault plan, ...). base.device is
  /// the spec template when `devices` is empty. base.collect_metrics turns
  /// the fleet observability plane on: every device gets its own
  /// obs::TelemetryObserver + serving instruments, and the run records a
  /// per-job lifecycle trace plus fleet-scope latency breakdowns — all
  /// zero-perturbation (the FleetReport bytes are identical either way;
  /// golden tests pin this).
  serve::ServiceConfig base;

  /// Per-device specs. Empty = a 1-device fleet of base.device. Mixed specs
  /// give a heterogeneous fleet.
  std::vector<gpu::DeviceSpec> devices;

  PlacementPolicy placement = PlacementPolicy::RoundRobin;
  /// Copy-queue weight of the copy-contention-aware policy.
  double copy_penalty = 2.0;
  /// Idle devices steal the newest queued job from the deepest peer queue.
  bool work_stealing = false;
  /// One health breaker per device over its job outcomes; tripped devices
  /// are quarantined and their queues rebalanced.
  bool device_breaker_enabled = false;
  fault::CircuitBreaker::Config device_breaker;

  /// Per-device fault plans. Empty = the legacy scheme (base.fault_plan
  /// with the seed offset by the device index). Non-empty: must have
  /// exactly num_devices() entries; device d runs device_fault_plans[d]
  /// verbatim, and a disabled entry runs that device fault-free. This is
  /// the only way to give devices distinct lifecycle faults (crash/flap/
  /// degrade schedules).
  std::vector<fault::FaultPlan> device_fault_plans;

  /// Maximum failover hops per job. Each time a job's device goes down the
  /// job is requeued to a healthy survivor, consuming one unit; at 0
  /// remaining (or when no survivor exists) the job terminates as
  /// ShedFailoverExhausted.
  int failover_budget = 3;

  /// Hedged dispatch: once a class has `hedge_min_samples` completed
  /// winners, a job still inflight after `hedge_threshold` x the class's
  /// running mean service time gets a second attempt on an idle healthy
  /// peer. First completion wins; the loser is cancelled.
  bool hedging = false;
  double hedge_threshold = 2.0;
  std::size_t hedge_min_samples = 4;

  /// Integrity pipeline (silent-data-corruption detection). It runs on
  /// every fleet; the FleetReport always carries its section. Verification
  /// re-executions are extra attempts of the same job on a different
  /// device, consume the per-job failover_budget, and never change the
  /// winning completion's timing — the pipeline is pure post-completion
  /// bookkeeping on the virtual clock.
  IntegrityPolicy integrity = IntegrityPolicy::Trust;
  /// Fraction of completed jobs spot-checked under SpotCheck (seeded,
  /// per-job deterministic draw).
  double spotcheck_rate = 0.1;
  /// A device whose SDC score (EWMA of vote blame attributions) reaches
  /// this threshold is permanently blocklisted.
  double sdc_blocklist_threshold = 0.8;
  /// EWMA smoothing factor for the per-device SDC score.
  double sdc_score_alpha = 0.5;

  std::size_t num_devices() const {
    return devices.empty() ? 1 : devices.size();
  }
  /// Resolved per-device specs (devices, or {base.device} when empty).
  std::vector<gpu::DeviceSpec> device_specs() const;
  /// Replaces `devices` with `n` copies of base.device.
  void resize_homogeneous(std::size_t n);

  /// Throws hq::Error on an unusable configuration.
  void validate() const;
};

/// The config's codec table (common/codec.hpp): its canonical text is what
/// the fleet sweep's grid key hashes.
std::span<const codec::Field<FleetConfig>> codec_fields(const FleetConfig&);

/// One device's raw outputs; its serving report is
/// FleetReport::devices[d].report.
struct FleetDeviceResult {
  check::ServeAccounting accounting;
  std::shared_ptr<trace::Recorder> trace;
  fault::FaultStats fault_stats;
  /// Engage/release edges of this device's overload controller.
  std::vector<serve::OverloadController::Transition> controller_transitions;
  /// This device's telemetry observer (finalized) and its registry —
  /// `metrics` aliases telemetry->registry(). Null unless
  /// base.collect_metrics.
  std::shared_ptr<obs::TelemetryObserver> telemetry;
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

struct FleetResult {
  FleetReport report;
  std::vector<FleetDeviceResult> devices;
  /// Every job in arrival order (job_id == arrival index == trace app id).
  std::vector<serve::JobRecord> jobs;
  /// Terminal owner device per job (the device that accounted it); -1 for
  /// ShedNoDevice and ShedFailoverExhausted jobs, which are accounted at
  /// the fleet level only.
  std::vector<int> owners;
  /// Per-job lifecycle chains (arrival -> placement -> hops -> dispatch ->
  /// terminal state). Null unless base.collect_metrics.
  std::shared_ptr<serve::JobLifecycleTracer> lifecycle;
  /// Fleet-scope metrics: job latency breakdowns (queue wait, placement,
  /// device service, turnaround) as histograms plus exact-percentile
  /// gauges, and fleet movement counters. Null unless base.collect_metrics.
  std::shared_ptr<obs::MetricsRegistry> fleet_metrics;
};

/// The cluster scheduler: one admission stream fanned out over a device
/// fleet under a single deterministic virtual clock.
class FleetService {
 public:
  explicit FleetService(FleetConfig config) : config_(std::move(config)) {}

  /// Runs one fleet serving experiment; deterministic per configuration.
  FleetResult run();

  const FleetConfig& config() const { return config_; }

 private:
  struct Shard;
  struct RunState;
  static sim::Task generator_task(RunState* st);
  /// Runs one dispatch attempt (primary, failover re-dispatches reuse the
  /// same path, hedges are extra attempts of the same job). It allocates
  /// and runs the app body shared with the batch harness
  /// (hyperq/app_body.hpp), with memory sync also on while the overload
  /// controller is engaged, frees, and then applies the fleet's own outcome
  /// logic: winner, hedge sibling, breakers, integrity.
  static sim::Task job_lifecycle(RunState* st, std::size_t attempt_index);

  FleetConfig config_;
};

}  // namespace hq::fleet
