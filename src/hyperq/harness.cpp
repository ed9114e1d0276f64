#include "hyperq/harness.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "hyperq/app_body.hpp"

namespace hq::fw {

std::span<const codec::Field<HarnessConfig>> codec_fields(
    const HarnessConfig&) {
  // num_streams and memory_sync are rows too, although a sweep point
  // overwrites both: one row per member keeps the member-count guard simple,
  // and an extra key only makes a grid key stricter.
  using H = HarnessConfig;
  static constexpr auto kFields = codec::table<H>({
      codec::row<&H::device>("device"),
      codec::row<&H::num_streams>("num-streams", {.min = 1}),
      codec::row<&H::memory_sync>("memory-sync"),
      codec::row<&H::transfer_chunk_bytes>("transfer-chunk-bytes"),
      codec::row<&H::blocking_transfers>("blocking-transfers"),
      codec::row<&H::launch_stagger>("launch-stagger"),
      codec::row<&H::functional>("functional"),
      codec::row<&H::check_invariants>("check-invariants"),
      codec::row<&H::monitor_power>("monitor-power"),
      codec::row<&H::power_period>("power-period"),
      codec::row<&H::sensor>("sensor"),
      codec::row<&H::collect_telemetry>("collect-telemetry"),
      codec::row<&H::fault_plan>("fault-plan"),
      codec::row<&H::retry>("retry"),
      codec::row<&H::watchdog_timeout>("watchdog-timeout"),
  });
  return kFields;
}

/// Everything a run's coroutines need, gathered behind one trivially-
/// destructible pointer (see the coroutine parameter rule in sim/task.hpp).
struct Harness::RunState {
  const HarnessConfig* config = nullptr;
  sim::Simulator* sim = nullptr;
  DeviceStack* stack = nullptr;
  PowerMonitor* monitor = nullptr;
  sim::CountdownLatch* latch = nullptr;
  std::vector<std::unique_ptr<Kernel>>* apps = nullptr;
  std::vector<Context>* contexts = nullptr;
  std::vector<AppMetrics>* metrics = nullptr;

  TimeNs phase_begin = 0;
  TimeNs phase_end = 0;
  Joules energy_begin = 0;
  Joules energy_end = 0;
  double occupancy_begin = 0;
  double occupancy_end = 0;
  /// Conjunction of verify() results, evaluated before buffers are freed.
  bool all_verified = true;
};

sim::Task Harness::child_task(RunState* st, int index) {
  const auto i = static_cast<std::size_t>(index);
  AppMetrics& metrics = (*st->metrics)[i];
  co_await st->stack->run_stages((*st->apps)[i].get(), &(*st->contexts)[i],
                                 st->config->memory_sync, &metrics.quarantined,
                                 &metrics.quarantine_reason);
  metrics.end_time = st->sim->now();
  st->latch->count_down();
}

sim::Task Harness::watchdog_task(RunState* st) {
  co_await st->sim->delay(st->config->watchdog_timeout);
  // Detection only: flag every app that missed the deadline. The simulation
  // still drains (all injected delays are finite), so the run completes and
  // reports the stragglers instead of hanging silently.
  for (std::size_t i = 0; i < st->metrics->size(); ++i) {
    AppMetrics& m = (*st->metrics)[i];
    if (m.end_time == 0 && !m.quarantined) {
      m.quarantined = true;
      m.quarantine_reason = "watchdog-deadline-exceeded";
    }
  }
}

sim::Task Harness::parent_task(RunState* st) {
  // Phase 1 (untimed, as in the paper): instantiate, allocate, initialize.
  for (std::size_t i = 0; i < st->apps->size(); ++i) {
    AppMetrics& m = (*st->metrics)[i];
    st->stack->allocate(*(*st->apps)[i], (*st->contexts)[i], &m.quarantined,
                        &m.quarantine_reason);
  }

  if (st->config->monitor_power) st->monitor->start();
  st->phase_begin = st->sim->now();
  st->energy_begin = st->stack->device.energy();
  st->occupancy_begin = st->stack->device.occupancy_integral_seconds();
  if (st->config->watchdog_timeout > 0) {
    st->sim->spawn(watchdog_task(st));
  }

  // Phase 2 (timed): launch each application on its own child thread, in
  // schedule order, with a small stagger that prejudices execution order to
  // follow launch order. Apps quarantined in phase 1 keep their latch slot
  // but are never launched (and consume no stagger).
  bool first_launch = true;
  for (std::size_t i = 0; i < st->apps->size(); ++i) {
    AppMetrics& m = (*st->metrics)[i];
    if (m.quarantined) {
      st->latch->count_down();
      continue;
    }
    if (!first_launch && st->config->launch_stagger > 0) {
      co_await st->sim->delay(st->config->launch_stagger);
    }
    first_launch = false;
    m.launch_time = st->sim->now();
    st->sim->spawn(child_task(st, static_cast<int>(i)));
  }
  co_await st->latch->wait();

  st->phase_end = st->sim->now();
  st->energy_end = st->stack->device.energy();
  st->occupancy_end = st->stack->device.occupancy_integral_seconds();
  if (st->config->monitor_power) st->monitor->stop();

  // Verification must see the DtoH results, so it runs before the frees.
  // Quarantined apps never produced output and are excluded.
  if (st->config->functional) {
    for (std::size_t i = 0; i < st->apps->size(); ++i) {
      if ((*st->metrics)[i].quarantined) continue;
      st->all_verified = st->all_verified &&
                         (*st->apps)[i]->verify((*st->contexts)[i]);
      (*st->metrics)[i].output_digest =
          (*st->apps)[i]->output_digest((*st->contexts)[i]);
    }
  }

  // Phase 3 (untimed): free everything.
  for (std::size_t i = 0; i < st->apps->size(); ++i) {
    Kernel& app = *(*st->apps)[i];
    Context& ctx = (*st->contexts)[i];
    app.freeHostMemory(ctx);
    app.freeDeviceMemory(ctx);
  }
}

HarnessResult Harness::run(const std::vector<WorkloadItem>& workload) {
  HQ_CHECK_MSG(!workload.empty(),
               "Harness::run: empty workload (need at least one application)");

  sim::Simulator sim;
  // Capacity hint from the workload shape: the event heap's high-water mark
  // scales with the number of concurrently-resident apps. Over-reserving
  // slightly is cheap; reallocating mid-run is not.
  sim.reserve_events(256 + 16 * workload.size());
  DeviceStack stack(sim, config_.device, config_.fault_plan,
                    config_.functional, config_.retry, config_.num_streams,
                    config_.check_invariants);
  nvml::ManagementLibrary nvml(sim, stack.device, config_.sensor);
  sim::CountdownLatch latch(sim, workload.size());
  PowerMonitor monitor(sim, nvml, config_.power_period);
  std::shared_ptr<obs::TelemetryObserver> telemetry;
  if (config_.collect_telemetry) {
    telemetry = std::make_shared<obs::TelemetryObserver>(stack.spec);
  }
  stack.attach_observers({telemetry.get()});

  std::vector<std::unique_ptr<Kernel>> apps;
  std::vector<Context> contexts;
  std::vector<AppMetrics> metrics;
  apps.reserve(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    apps.push_back(workload[i].factory());
    HQ_CHECK_MSG(apps.back() != nullptr,
                 "factory for '" << workload[i].type_name << "' returned null");
    Context ctx = stack.context(sim, static_cast<int>(i));
    ctx.transfer_chunk_bytes = config_.transfer_chunk_bytes;
    ctx.blocking_transfers = config_.blocking_transfers;
    contexts.push_back(ctx);
    AppMetrics m;
    m.app_id = static_cast<int>(i);
    m.type = workload[i].type_name;
    metrics.push_back(std::move(m));
  }

  RunState state;
  state.config = &config_;
  state.sim = &sim;
  state.stack = &stack;
  state.monitor = &monitor;
  state.latch = &latch;
  state.apps = &apps;
  state.contexts = &contexts;
  state.metrics = &metrics;

  sim.spawn(parent_task(&state));
  sim.run();
  HQ_CHECK_MSG(sim.live_tasks() == 0, "run finished with live tasks");
  const std::uint64_t run_events = sim.events_processed();
  const sim::CallbackStats run_callback_stats = sim.callback_stats();
  stack.finalize_checks(0);

  HarnessResult result;
  result.phase_begin = state.phase_begin;
  result.phase_end = state.phase_end;
  result.makespan = state.phase_end - state.phase_begin;
  result.energy_exact = state.energy_end - state.energy_begin;
  result.energy_sensor =
      monitor.energy_between(state.phase_begin, state.phase_end);
  result.average_power =
      monitor.average_power(state.phase_begin, state.phase_end);
  result.peak_power = monitor.peak_power(state.phase_begin, state.phase_end);
  if (result.makespan > 0) {
    result.average_occupancy = (state.occupancy_end - state.occupancy_begin) /
                               to_seconds(result.makespan);
  }
  result.power_trace = monitor.samples();
  result.device_stats = stack.device.stats();
  result.events_processed = run_events;
  result.callback_stats = run_callback_stats;

  if (telemetry != nullptr) telemetry->finalize();

  // One pass over the trace gives every app's numbers (app id == workload
  // index): O(spans) instead of the O(NA * spans) of per-app scans.
  const std::vector<AppTransferTimes> times =
      app_transfer_times(*stack.recorder, apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    AppMetrics& m = metrics[i];
    m.htod_effective_latency = times[i].htod_latency.value_or(0);
    m.dtoh_effective_latency = times[i].dtoh_latency.value_or(0);
    m.htod_own_time = times[i].htod_own_time;
    m.htod_bytes = apps[i]->htod_bytes();
    m.dtoh_bytes = apps[i]->dtoh_bytes();
    m.first_activity = times[i].first_activity.value_or(0);
  }
  if (telemetry != nullptr) {
    // attribution() is sorted by app_id == workload index.
    for (const obs::AppAttribution& a : telemetry->attribution()) {
      if (a.app_id < 0 || a.app_id >= static_cast<int>(metrics.size())) {
        continue;
      }
      AppMetrics& m = metrics[static_cast<std::size_t>(a.app_id)];
      m.htod_interleave_count = a.foreign_htod_count;
      m.htod_interleave_bytes = a.foreign_htod_bytes;
    }
  }
  result.all_verified = state.all_verified;
  for (const AppMetrics& m : metrics) {
    if (m.quarantined) {
      result.degraded.quarantined.push_back(
          {m.app_id, m.type, m.quarantine_reason});
    }
  }
  if (stack.injector != nullptr) {
    result.degraded.stats = stack.injector->stats();
  }
  result.apps = std::move(metrics);
  result.trace = stack.recorder;
  result.telemetry = std::move(telemetry);
  return result;
}

obs::RunInfo telemetry_run_info(const HarnessConfig& config,
                                const HarnessResult& result,
                                std::string workload, std::string order) {
  obs::RunInfo info;
  info.workload = std::move(workload);
  info.num_apps = static_cast<int>(result.apps.size());
  info.num_streams = config.num_streams;
  info.order = std::move(order);
  info.memory_sync = config.memory_sync;
  info.makespan = result.makespan;
  info.energy_j = result.energy_exact;
  info.average_power_w = result.average_power;
  info.peak_power_w = result.peak_power;
  info.average_occupancy = result.average_occupancy;
  info.trace_digest = result.trace ? trace::digest(*result.trace) : 0;
  return info;
}

std::vector<obs::AppReport> telemetry_app_reports(const HarnessResult& result) {
  std::vector<obs::AppReport> out;
  out.reserve(result.apps.size());
  for (const AppMetrics& m : result.apps) {
    obs::AppReport r;
    r.app_id = m.app_id;
    r.type = m.type;
    r.htod_effective_latency = m.htod_effective_latency;
    r.dtoh_effective_latency = m.dtoh_effective_latency;
    r.htod_own_time = m.htod_own_time;
    r.htod_bytes = m.htod_bytes;
    r.dtoh_bytes = m.dtoh_bytes;
    r.htod_interleave_count = m.htod_interleave_count;
    r.htod_interleave_bytes = m.htod_interleave_bytes;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace hq::fw
