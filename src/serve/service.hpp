// Overload-robust streaming serving layer: the paper's Section VI future
// work ("manage streaming workloads, rather than a finite set"). Jobs
// arrive continuously (seeded Poisson arrivals or a replayed trace) and
// run their transfer/execute/transfer pattern on a stream pool, with
// explicit overload behavior:
//
//   * a bounded admission queue with pluggable shed policies (drop-tail,
//     deadline-aware, per-class priority) — src/serve/admission.hpp;
//   * per-job deadlines with SLO accounting: goodput vs raw throughput,
//     deadline-miss ratio, and a shed/timeout/quarantine breakdown;
//   * a hysteresis overload controller that watches copy-queue stretch and
//     auto-switches into the paper's memory-sync pseudo-burst mode under
//     DMA contention — src/serve/controller.hpp;
//   * per-class circuit breakers over the PR-4 fault layer: repeated launch
//     failures or attributed copy-engine stalls trip a class open, new work
//     for it is shed at admission, and a half-open probe closes it again —
//     src/fault/breaker.hpp;
//   * graceful drain: admission closes at the window end, everything
//     in flight completes, and the run ends with a deterministic report.
//
// A Service is a 1-device fleet: Service::run() runs a fleet::FleetService
// over {base = config} with every fleet-only option at its default and
// returns device 0's outputs. It is defined in src/fleet/service.cpp, so a
// target that runs a Service links hq_fleet; hq_serve holds the types, the
// admission queue, the controller and the reports. Crash/flap fault plans
// take the device down and need more than one device: run() rejects them.
//
// Determinism contract: same config + seed => byte-identical report and
// trace digest at any --jobs count (jobs only shard independent runs).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/serve_invariants.hpp"
#include "fault/breaker.hpp"
#include "fault/fault.hpp"
#include "hyperq/harness.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/controller.hpp"
#include "serve/report.hpp"

namespace hq::serve {

/// One application class jobs are drawn from (uniformly per arrival),
/// plus its admission priority.
struct ClassSpec {
  fw::WorkloadItem item;
  /// Larger = more important (Priority shed policy; echoed in reports).
  int priority = 0;
};

/// One replayed arrival (ServiceConfig::arrivals).
struct Arrival {
  TimeNs at = 0;
  std::size_t klass = 0;
};

struct ServiceConfig {
  gpu::DeviceSpec device = gpu::DeviceSpec::tesla_k20();
  int num_streams = 32;
  /// Global pseudo-burst mode (paper Section III-B), independent of the
  /// overload controller.
  bool memory_sync = false;
  bool functional = false;
  /// Admission window: arrivals are generated for this long; the run ends
  /// when the last admitted job completes (graceful drain).
  DurationNs window = 100 * kMillisecond;
  /// Mean inter-arrival time of the Poisson process.
  DurationNs mean_interarrival = 2 * kMillisecond;
  /// Application classes, sampled uniformly per arrival.
  std::vector<ClassSpec> classes;
  std::uint64_t seed = 1;
  /// When non-empty, these arrivals are replayed (times must not decrease)
  /// instead of drawing the Poisson process.
  std::vector<Arrival> arrivals;

  // --- admission -----------------------------------------------------------
  /// Bound on queued + inflight jobs; 0 = unbounded.
  std::size_t queue_cap = 0;
  /// Bound on concurrently dispatched jobs; 0 = unbounded (every admitted
  /// job dispatches immediately).
  std::size_t max_inflight = 0;
  ShedPolicy shed_policy = ShedPolicy::DropTail;

  // --- deadlines -----------------------------------------------------------
  /// Relative deadline applied to every job (0 = none). A job finishing
  /// past arrival + deadline counts as completed_late (SLO miss).
  DurationNs deadline = 0;
  /// When set, a queued job whose deadline has already passed at dispatch
  /// time is expired (timed_out_queued) instead of dispatched. Off by
  /// default: deadlines are then pure accounting and provably do not
  /// perturb the schedule (the fuzz oracle pins this).
  bool expire_queued = false;

  // --- control loops -------------------------------------------------------
  OverloadController::Config controller;
  /// One circuit breaker per class, fed by launch faults and attributed
  /// copy stalls; open classes shed new work at admission.
  bool breaker_enabled = false;
  fault::CircuitBreaker::Config breaker;

  // --- robustness / instrumentation ---------------------------------------
  fault::FaultPlan fault_plan;
  rt::RetryPolicy retry;
  bool check_invariants = true;
  bool collect_metrics = true;

  /// Throws hq::Error on an unusable configuration.
  void validate() const;
};

/// Terminal (and transient) states of one job.
enum class JobState : std::uint8_t {
  Queued,          ///< transient: waiting in the admission queue
  Inflight,        ///< transient: dispatched, running its lifecycle
  CompletedOk,     ///< completed within its deadline (or had none)
  CompletedLate,   ///< completed past its deadline
  ShedQueueFull,   ///< rejected by the admission queue
  ShedBreaker,     ///< rejected because the class breaker was open
  TimedOutQueued,  ///< expired in the queue before dispatch
  Quarantined,     ///< dispatched but failed (launch abort / allocation)
  /// Fleet only: every device's health breaker rejected the arrival, so
  /// no placement was possible. Never produced by a Service.
  ShedNoDevice,
  /// Fleet only: the job's device went down (crash or flap) and the
  /// per-job failover budget was exhausted — or no healthy survivor
  /// existed — before it could complete elsewhere. Never produced by a
  /// Service, which rejects crash/flap plans.
  ShedFailoverExhausted,
};

const char* job_state_name(JobState state);

struct JobRecord {
  int job_id = -1;  ///< arrival index; doubles as the trace app id
  std::size_t klass = 0;
  JobState state = JobState::Queued;
  TimeNs arrived_at = 0;
  TimeNs dispatched_at = 0;
  TimeNs completed_at = 0;
  TimeNs deadline_at = 0;  ///< absolute; 0 = none
  /// Transfers ran under the htod mutex because the controller was engaged.
  bool pseudo_burst = false;
  std::string quarantine_reason;
};

struct ServeResult {
  ServeReport report;
  check::ServeAccounting accounting;
  std::vector<JobRecord> jobs;
  std::shared_ptr<trace::Recorder> trace;
  /// The device's metrics registry: serving instruments (queue depth and
  /// inflight series, wait histogram, serve_* counters) plus device
  /// telemetry and device_*/fault_* counters; nullptr unless
  /// config.collect_metrics.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  fault::FaultStats fault_stats;
  std::vector<OverloadController::Transition> controller_transitions;
};

class Service {
 public:
  explicit Service(ServiceConfig config) : config_(std::move(config)) {}

  /// Runs one serving experiment; deterministic per configuration. Throws
  /// hq::Error on an invalid config or a crash/flap fault plan.
  ServeResult run();

  const ServiceConfig& config() const { return config_; }

 private:
  ServiceConfig config_;
};

}  // namespace hq::serve
