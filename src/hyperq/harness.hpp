// Test harness (paper Section IV).
//
// "The execution flow of our test harness begins with loading an application
// scheduling order to execute, instantiating a new class object for each
// separate application, allocating all host and device memory, and
// initializing host memory. Once this has been completed, the host parent
// thread launches a separate thread to monitor the device power consumption
// ... Then the parent thread launches each application class instance on its
// own independent child thread. Within the child thread, each instance runs
// its particular execution pattern (in general, HtoD memory transfer --
// kernel execution -- DtoH memory transfer). After all child threads have
// completed, the host parent thread frees all host and device memory,
// destroys all stream objects, and terminates the power sampling thread."
//
// One Harness::run builds a fresh simulator + device + runtime, executes the
// workload in the given order over NS streams, and returns timing, power,
// energy, per-application and trace results. Runs are fully deterministic.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "gpusim/device_spec.hpp"
#include "hyperq/kernel.hpp"
#include "hyperq/metrics.hpp"
#include "hyperq/power_monitor.hpp"
#include "hyperq/stream_manager.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "sim/event_fn.hpp"

namespace hq::fw {

/// One application instance in launch order: a display name and a factory
/// creating a fresh Kernel object.
struct WorkloadItem {
  std::string type_name;
  std::function<std::unique_ptr<Kernel>()> factory;
  /// Canonical record of the resolved parameters the factory's instances
  /// run with (e.g. "size=64 seed=1001"); empty when the item has none.
  /// Grid keys mix it, because the factory closure hides them.
  std::string params = {};
};

struct HarnessConfig {
  gpu::DeviceSpec device = gpu::DeviceSpec::tesla_k20();
  /// Number of streams NS; NA apps on 1 stream = fully serialized, NA apps
  /// on NA streams = fully concurrent.
  int num_streams = 32;
  /// Enables the Section III-B host-side HtoD memory synchronization (the
  /// pseudo-burst / batched transfer mutex).
  bool memory_sync = false;
  /// Pai et al. style transfer chunking ablation; 0 = off.
  Bytes transfer_chunk_bytes = 0;
  /// Blocking (cudaMemcpy-style) transfers, as in the Rodinia reference
  /// implementations. See Context::blocking_transfers.
  bool blocking_transfers = true;
  /// Delay between child-thread launches; prejudices execution order to
  /// follow launch order (Section III-C). The default models the host cost
  /// of pthread creation plus per-thread CUDA setup on the paper's testbed;
  /// it calibrates the copy-queue interleaving depth (Figure 6's ~8x
  /// effective-latency inflation).
  DurationNs launch_stagger = 100 * kMicrosecond;
  /// Run the real algorithms (slower; tests use it, figure benches do not).
  bool functional = false;
  /// Attach the hq_check invariant observer to the device and validate the
  /// run online (clock monotonicity, copy FIFO order, SMX conservation,
  /// LEFTOVER order, stream ordering, memory accounting, energy ≡ ∫power).
  /// A violation aborts the run with a report. Cheap; on by default.
  bool check_invariants = true;
  /// Sample power during the run.
  bool monitor_power = true;
  DurationNs power_period = 15 * kMillisecond;
  nvml::SensorOptions sensor;
  /// Attach the hq_obs telemetry observer (counters, time-series, per-app
  /// interleave attribution; see src/obs/telemetry.hpp). Passive: the
  /// simulated schedule and trace digest are bit-identical either way
  /// (proven against the pinned golden digests). Off by default because the
  /// series buffers cost memory on large sweeps.
  bool collect_telemetry = false;
  /// Deterministic fault plan (see src/fault/fault.hpp). Disabled by
  /// default. An enabled all-zero-rate plan attaches the injector without
  /// perturbing anything — the pinned golden digests stay bit-identical
  /// (proven by the zero-perturbation golden test).
  fault::FaultPlan fault_plan;
  /// Retry policy for transient submission failures (capped exponential
  /// backoff). Only consulted when faults can actually fail submissions.
  rt::RetryPolicy retry;
  /// Per-app watchdog: any app still unfinished this long after the timed
  /// phase begins is flagged quarantined ("watchdog-deadline-exceeded") in
  /// the degraded report. Detection only — the simulation still drains (all
  /// injected delays are finite). 0 = off.
  DurationNs watchdog_timeout = 0;
};

struct HarnessResult {
  /// Timed phase-2 duration: first child launch to last child completion.
  DurationNs makespan = 0;
  TimeNs phase_begin = 0;
  TimeNs phase_end = 0;
  /// Device-integrated (exact) energy over the timed phase.
  Joules energy_exact = 0;
  /// Energy integrated from the sampled power trace (paper methodology).
  Joules energy_sensor = 0;
  Watts average_power = 0;
  Watts peak_power = 0;
  /// Mean thread occupancy over the timed phase.
  double average_occupancy = 0;
  std::vector<AppMetrics> apps;
  std::vector<PowerSample> power_trace;
  /// Full span trace of the run (kernel/copy/lock-wait spans).
  std::shared_ptr<trace::Recorder> trace;
  gpu::Device::Stats device_stats;
  /// Conjunction of per-app verify() results (meaningful in functional runs).
  bool all_verified = true;
  /// Finalized telemetry (nullptr unless config.collect_telemetry).
  std::shared_ptr<obs::TelemetryObserver> telemetry;
  /// Fault accounting and quarantined apps (empty without a fault plan).
  fault::DegradedReport degraded;
  /// Simulator events dispatched by the run. Deterministic for a fixed
  /// scenario, so it doubles as a scheduling-cost metric (perfbench's
  /// sim.events) and a regression budget (tests/perf).
  std::uint64_t events_processed = 0;
  /// Event-callback storage stats for the run (see sim::Simulator): inline,
  /// pool-slot, and oversize-heap callback counts. The perf budget test
  /// pins `oversize` at zero for the standard workloads.
  sim::CallbackStats callback_stats;
};

class Harness {
 public:
  explicit Harness(HarnessConfig config = {}) : config_(std::move(config)) {}

  /// Executes the workload in the given launch order. Each call is an
  /// independent, deterministic simulation.
  HarnessResult run(const std::vector<WorkloadItem>& workload);

  const HarnessConfig& config() const { return config_; }

 private:
  struct RunState;
  static sim::Task parent_task(RunState* st);
  static sim::Task child_task(RunState* st, int index);
  static sim::Task watchdog_task(RunState* st);

  HarnessConfig config_;
};

/// Builds the run-level header of a telemetry report from a finished run.
/// `workload` and `order` are display strings the harness does not know
/// (e.g. "gaussian+needle", "naive-fifo").
obs::RunInfo telemetry_run_info(const HarnessConfig& config,
                                const HarnessResult& result,
                                std::string workload, std::string order);

/// Per-app report rows (Le, bytes, interleave attribution) in app order.
std::vector<obs::AppReport> telemetry_app_reports(const HarnessResult& result);

}  // namespace hq::fw
