#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fault/lifecycle.hpp"
#include "hyperq/app_body.hpp"
#include "serve/signals.hpp"
#include "trace/trace.hpp"

namespace hq::fleet {

const char* integrity_policy_name(IntegrityPolicy policy) {
  switch (policy) {
    case IntegrityPolicy::Trust: return "trust";
    case IntegrityPolicy::SpotCheck: return "spotcheck";
    case IntegrityPolicy::Dmr: return "dmr";
  }
  return "?";
}

std::span<const codec::Field<FleetConfig>> codec_fields(const FleetConfig&) {
  using F = FleetConfig;
  constexpr codec::Spec kUnit{.min = 0, .max = 1, .min_open = true};
  static constexpr auto kFields = codec::table<F>({
      codec::row<&F::base>("base"),
      codec::row<&F::devices>("devices"),
      codec::enum_row<&F::placement, placement_policy_name, 4>("placement"),
      codec::row<&F::copy_penalty>("copy-penalty", {.min = 0}),
      codec::row<&F::work_stealing>("work-stealing"),
      codec::row<&F::device_breaker_enabled>("device-breaker-enabled"),
      codec::row<&F::device_breaker>("device-breaker"),
      codec::row<&F::device_fault_plans>("device-fault-plans"),
      codec::row<&F::failover_budget>("failover-budget", {.min = 0}),
      codec::row<&F::hedging>("hedging"),
      codec::row<&F::hedge_threshold>("hedge-threshold",
                                      {.min = 0, .min_open = true}),
      codec::row<&F::hedge_min_samples>("hedge-min-samples", {.min = 1}),
      codec::enum_row<&F::integrity, integrity_policy_name, 3>("integrity"),
      codec::row<&F::spotcheck_rate>("spotcheck-rate", {.min = 0, .max = 1}),
      codec::row<&F::sdc_blocklist_threshold>("sdc-blocklist-threshold", kUnit),
      codec::row<&F::sdc_score_alpha>("sdc-score-alpha", kUnit),
  });
  return kFields;
}

std::vector<gpu::DeviceSpec> FleetConfig::device_specs() const {
  if (devices.empty()) return {base.device};
  return devices;
}

void FleetConfig::resize_homogeneous(std::size_t n) {
  HQ_CHECK_MSG(n >= 1, "fleet config: need at least one device");
  devices.assign(n, base.device);
}

void FleetConfig::validate() const {
  base.validate();
  std::string error;
  HQ_CHECK_MSG(codec::check(*this, &error), "fleet config: " << error);
  HQ_CHECK_MSG(device_fault_plans.empty() ||
                   device_fault_plans.size() == num_devices(),
               "fleet config: device_fault_plans has "
                   << device_fault_plans.size() << " entries for "
                   << num_devices() << " devices");
}

namespace {

/// Passive per-device copy-engine depth counter feeding the
/// copy-contention-aware placement policy. Counts transactions between
/// enqueue and service completion, both directions combined. Like every
/// DeviceObserver it never mutates device state (zero-perturbation).
class CopyDepthTracker final : public gpu::DeviceObserver {
 public:
  void on_copy_enqueued(TimeNs /*now*/, gpu::CopyDirection /*dir*/,
                        gpu::OpId /*op*/, gpu::StreamId /*stream*/,
                        std::int32_t /*app*/, Bytes /*bytes*/) override {
    ++depth_;
  }
  void on_copy_served(TimeNs /*now*/, gpu::CopyDirection /*dir*/,
                      gpu::OpId /*op*/, std::int32_t /*app*/, TimeNs /*begin*/,
                      TimeNs /*end*/, Bytes /*bytes*/) override {
    if (depth_ > 0) --depth_;
  }
  std::size_t depth() const { return depth_; }

 private:
  std::size_t depth_ = 0;
};

/// The fault plan device `index` actually runs: device_fault_plans[index]
/// verbatim when per-device plans are configured; otherwise the base plan
/// with its seed offset by the device index (fault decorrelation), so
/// device 0 runs the base plan verbatim.
fault::FaultPlan effective_fault_plan(const FleetConfig& cfg,
                                      std::size_t index) {
  if (!cfg.device_fault_plans.empty()) return cfg.device_fault_plans[index];
  fault::FaultPlan plan = cfg.base.fault_plan;
  plan.seed += static_cast<std::uint64_t>(index);
  return plan;
}

}  // namespace

/// One device's serving engine: the shared device stack plus the serving
/// state around it. Shards live in a deque so addresses stay stable.
struct FleetService::Shard : fw::DeviceStack {
  std::size_t index;
  serve::OverloadController controller;
  /// Empty when the class breaker is disabled; else one per class.
  std::vector<std::unique_ptr<fault::CircuitBreaker>> breakers;
  serve::AdmissionQueue queue;
  serve::ServeSignals signals;
  CopyDepthTracker copy_depth;
  /// Device health breaker; nullptr when disabled.
  std::unique_ptr<fault::CircuitBreaker> device_breaker;

  // --- observability plane (all null unless base.collect_metrics) ----------
  /// Per-device telemetry observer; owns this device's MetricsRegistry.
  std::shared_ptr<obs::TelemetryObserver> telemetry;
  obs::Histogram* queue_wait_hist = nullptr;
  obs::Series* queue_depth_series = nullptr;
  obs::Series* inflight_series = nullptr;
  obs::Series* completed_series = nullptr;
  /// 0 = closed, 1 = open, 2 = half-open; only when the breaker exists.
  obs::Series* breaker_state_series = nullptr;
  /// The integrity pipeline's EWMA blame score of this device.
  obs::Series* sdc_score_series = nullptr;
  std::uint64_t completed_jobs = 0;

  // --- fleet fault domains --------------------------------------------------
  /// Down/up schedule from the effective fault plan; null when the plan has
  /// no crash/flap faults (the device is permanently up).
  std::unique_ptr<fault::DeviceLifecycle> lifecycle_faults;
  /// True while the device is down (between a down and an up transition).
  /// Always false without lifecycle faults — zero perturbation.
  bool down = false;
  /// Energy/occupancy frozen at the drain instant (lifecycle transition
  /// events can outlive the drain and would otherwise stretch the lazy
  /// idle-power integral; without lifecycle faults these equal the post-run
  /// reads exactly).
  Joules final_energy = 0;
  double final_occupancy = 0;

  std::size_t inflight = 0;
  std::size_t peak_inflight = 0;
  std::uint64_t pseudo_burst_jobs = 0;
  /// This device's routing, fault-domain and integrity counters, counted in
  /// place; the name, breaker fields and report are filled in at drain.
  /// The fleet totals of these counters are their sums (fill_fleet_totals).
  /// stats.blocklisted marks a device the integrity pipeline removed for
  /// good: no placements, steals, hedges, or verifications land here, and
  /// its work is displaced to survivors. Distinct from `down` (availability
  /// quarantine): the device is up but untrusted.
  FleetDeviceStats stats;
  /// Health-breaker trips already rebalanced (detects fresh trips).
  std::uint64_t seen_trips = 0;
  /// A drain-retry pump is already scheduled for this shard.
  bool retry_scheduled = false;

  Shard(std::size_t idx, sim::Simulator& sim, const FleetConfig& cfg,
        const gpu::DeviceSpec& raw_spec, std::deque<serve::JobRecord>* jobs)
      : fw::DeviceStack(sim, raw_spec, effective_fault_plan(cfg, idx),
                        cfg.base.functional, cfg.base.retry,
                        cfg.base.num_streams, cfg.base.check_invariants),
        index(idx),
        controller(cfg.base.controller),
        queue({cfg.base.queue_cap, cfg.base.shed_policy}),
        signals(&controller, jobs, &breakers),
        device_breaker(cfg.device_breaker_enabled
                           ? std::make_unique<fault::CircuitBreaker>(
                                 cfg.device_breaker)
                           : nullptr) {
    if (cfg.base.breaker_enabled) {
      for (std::size_t i = 0; i < cfg.base.classes.size(); ++i) {
        breakers.push_back(
            std::make_unique<fault::CircuitBreaker>(cfg.base.breaker));
      }
    }
    // Lifecycle schedule for the device's effective plan; none when the plan
    // carries no crash/flap (degrade is handled inside the injector's copy
    // path and needs no transition events).
    if (injector != nullptr && injector->plan().any_down_transitions()) {
      lifecycle_faults =
          std::make_unique<fault::DeviceLifecycle>(injector->plan());
    }
  }

  fault::CircuitBreaker* breaker_for(std::size_t klass) {
    return breakers.empty() ? nullptr : breakers[klass].get();
  }
  /// Up and trusted: the device may take placements, steals, hedges and
  /// verifications (its health breaker aside).
  bool healthy() const { return !down && !stats.blocklisted; }
  int id() const { return static_cast<int>(index); }
};

/// The run's state, owned in one place: the simulator, RNG, placer, shards,
/// jobs, attempts, execution records, owners and lifecycle tracer. The
/// coroutines reach it through one trivially-destructible pointer (the
/// coroutine parameter rule in sim/task.hpp). Each engine step below is one
/// function: start an attempt, move a job, enqueue it, expire it, cancel an
/// attempt, end a job.
struct FleetService::RunState {
  /// One dispatch attempt of a job. Coroutines cannot be aborted mid-await,
  /// so cancelling an attempt (failover off a downed device, losing a hedge
  /// race) clears `viable` and lets the coroutine drain as a zombie: its
  /// device work stands in the trace, but its outcome is discarded. The
  /// deque keeps addresses stable across growth (coroutines hold indices,
  /// not pointers, but the app/context must not move mid-await).
  /// A primary dispatches the job, a hedge races it, and a verification
  /// re-executes a completed job: its outcome feeds the digest vote instead
  /// of the job state.
  enum class AttemptKind : std::uint8_t { Primary, Hedge, Verify };
  struct Attempt {
    int job_id = -1;
    std::size_t shard = 0;
    bool viable = true;
    AttemptKind kind = AttemptKind::Primary;
    std::unique_ptr<fw::Kernel> app;
    fw::Context context;
  };
  /// One functional result digest consumed by the integrity pipeline (the
  /// winning completion plus any verification re-executions).
  struct ConsumedResult {
    std::uint64_t digest = 0;
    std::size_t shard = 0;
    bool corrupted = false;  ///< the producing device corrupted this result
  };
  /// Per-job fault-domain execution state.
  struct JobExec {
    int primary_attempt = -1;  ///< current non-hedge attempt; -1 when none
    int hedge_attempt = -1;    ///< racing hedge attempt; -1 when none
    int failovers = 0;         ///< failover hops consumed
    std::uint64_t dispatches = 0;  ///< total attempts ever dispatched
    // Integrity pipeline: primary + up to two verification results (first
    // verify, then the majority tiebreak) and the in-flight verify attempt.
    ConsumedResult results[3];
    int num_results = 0;
    int verify_attempt = -1;  ///< in-flight verify attempt; -1 when none
    bool integrity_resolved = false;

    /// The attempt racing `attempt` (the hedge of a primary, the primary of
    /// a hedge); -1 when none.
    int sibling_of(int attempt) const {
      return primary_attempt == attempt ? hedge_attempt : primary_attempt;
    }
  };
  /// Running per-class mean of winning service times (dispatch ->
  /// completion) feeding the hedge straggler threshold.
  struct ClassService {
    std::uint64_t count = 0;
    double sum_ns = 0;
  };

  explicit RunState(const FleetConfig& cfg);

  const FleetConfig& config;
  sim::Simulator sim;
  sim::Event drained{sim};
  Rng rng;
  Placer placer;
  std::deque<serve::JobRecord> jobs;
  std::deque<Attempt> attempts;
  std::deque<JobExec> execs;
  /// Current owner device per job; -1 before placement / for ShedNoDevice
  /// and ShedFailoverExhausted.
  std::vector<int> owners;
  std::deque<Shard> shards;
  /// Per-job lifecycle tracer; null unless base.collect_metrics. Recording
  /// is passive (never touches the simulator), so the schedule is
  /// bit-identical with or without it.
  std::shared_ptr<serve::JobLifecycleTracer> lifecycle;
  /// The fleet-only counters (hedge_wins, hedges_cancelled, sdc_missed),
  /// counted in place; every other field is filled in at drain.
  FleetReport fleet_report;

  bool admission_closed = false;
  TimeNs window_closed_at = 0;
  std::vector<ClassService> class_service;
  /// Virtual time when the drain event fired; lifecycle transition events
  /// can outlive the drain, so run totals use this instead of the final
  /// clock (identical without lifecycle faults).
  TimeNs finished_at = 0;
  DurationNs drain_time = 0;  ///< window close -> drain
  /// Reused placement-snapshot buffer (no steady-state allocation).
  std::vector<DeviceLoad> load_buf;

  serve::JobRecord& job(int id) { return jobs[static_cast<std::size_t>(id)]; }
  JobExec& exec(int id) { return execs[static_cast<std::size_t>(id)]; }

  bool can_dispatch(const Shard& s) const {
    return config.base.max_inflight == 0 ||
           s.inflight < config.base.max_inflight;
  }

  void trace_job(int job_id, serve::JobEventKind kind, int device = -1,
                 int from_device = -1) {
    if (lifecycle != nullptr) {
      lifecycle->record(job_id, sim.now(), kind, device, from_device);
    }
  }

  /// Ends `job_id` in terminal `state` and records the event of that name.
  void end_job(int job_id, serve::JobState state, int device,
               int from_device = -1) {
    job(job_id).state = state;
    trace_job(job_id, serve::terminal_event(state), device, from_device);
  }

  /// Samples this shard's queue-depth/inflight series (no-ops when metrics
  /// are off).
  void sample_depths(Shard& s) {
    if (s.queue_depth_series != nullptr) {
      s.queue_depth_series->sample(sim.now(),
                                   static_cast<double>(s.queue.size()));
    }
    if (s.inflight_series != nullptr) {
      s.inflight_series->sample(sim.now(), static_cast<double>(s.inflight));
    }
  }

  void sample_breaker(Shard& s) {
    if (s.breaker_state_series == nullptr || s.device_breaker == nullptr) {
      return;
    }
    // The series value is the state's enumerator: 0 closed, 1 open,
    // 2 half-open, 3 blocklisted.
    s.breaker_state_series->sample(
        sim.now(), static_cast<double>(s.device_breaker->state()));
  }

  /// Consumes one device health-breaker admission (half-open probes are
  /// real dispatches). Only called immediately before a dispatch so an
  /// admitted probe always resolves. A down device admits nothing.
  bool gate(Shard& s) {
    if (!s.healthy()) return false;
    if (s.device_breaker == nullptr) return true;
    const bool admitted = s.device_breaker->allow(sim.now());
    sample_breaker(s);  // allow() can move Open -> HalfOpen
    return admitted;
  }

  std::span<const DeviceLoad> snapshot_loads() {
    load_buf.clear();
    const TimeNs now = sim.now();
    for (Shard& s : shards) {
      DeviceLoad load;
      load.healthy = s.healthy() && (s.device_breaker == nullptr ||
                                     s.device_breaker->would_allow(now));
      load.outstanding = s.queue.size() + s.inflight;
      load.copy_depth = s.copy_depth.depth();
      load_buf.push_back(load);
    }
    return load_buf;
  }

  /// Starts one attempt of `job_id` on `s`: a fresh app instance and
  /// device-bound context, run by one job_lifecycle coroutine. A primary
  /// dispatches the job; a hedge races it (from the primary's device); a
  /// verification re-executes a completed job (from the device whose
  /// result it checks) and consumes one unit of its failover budget.
  void start_attempt(Shard& s, int job_id,
                     AttemptKind kind = AttemptKind::Primary,
                     int from_device = -1) {
    const std::size_t attempt_index = attempts.size();
    Attempt& a = attempts.emplace_back();
    a.job_id = job_id;
    a.shard = s.index;
    a.kind = kind;
    serve::JobRecord& j = job(job_id);
    const serve::ClassSpec& spec = config.base.classes[j.klass];
    a.app = spec.item.factory();
    HQ_CHECK_MSG(a.app != nullptr, "factory for '" << spec.item.type_name
                                                   << "' returned null");
    a.context = s.context(sim, job_id);
    JobExec& ex = exec(job_id);
    ++ex.dispatches;
    const int slot = static_cast<int>(attempt_index);
    switch (kind) {
      case AttemptKind::Primary:
        ex.primary_attempt = slot;
        j.state = serve::JobState::Inflight;
        j.dispatched_at = sim.now();
        if (s.queue_wait_hist != nullptr) {
          s.queue_wait_hist->record(
              static_cast<double>(j.dispatched_at - j.arrived_at));
        }
        trace_job(job_id, serve::JobEventKind::Dispatched, s.id());
        break;
      case AttemptKind::Hedge:
        ex.hedge_attempt = slot;
        ++s.stats.hedges_run;
        trace_job(job_id, serve::JobEventKind::Hedged, s.id(), from_device);
        break;
      case AttemptKind::Verify:
        ++ex.failovers;
        ex.verify_attempt = slot;
        ++s.stats.verifications_run;
        trace_job(job_id, serve::JobEventKind::VerifyDispatched, s.id(),
                  from_device);
        break;
    }
    ++s.inflight;
    s.peak_inflight = std::max(s.peak_inflight, s.inflight);
    sim.spawn(FleetService::job_lifecycle(this, attempt_index));
    sample_depths(s);
    if (kind == AttemptKind::Primary) {
      maybe_schedule_hedge(job_id, attempt_index);
    }
  }

  /// Cancels a running attempt: it drains as a zombie, and its device
  /// counts the cancellation.
  void cancel(Attempt& a) {
    a.viable = false;
    ++shards[a.shard].stats.attempts_cancelled;
  }

  /// `job_id` as its owner's admission queue holds it.
  serve::QueuedJob queued(int job_id) {
    const serve::JobRecord& j = job(job_id);
    return {job_id, config.base.classes[j.klass].priority, j.arrived_at,
            j.deadline_at};
  }

  /// Offers `q` to `t`'s admission queue; the queue-full victim (possibly
  /// `q` itself) ends as ShedQueueFull there.
  void enqueue(Shard& t, const serve::QueuedJob& q) {
    const auto victim = t.queue.offer(q, sim.now(), t.inflight);
    if (victim.has_value()) {
      end_job(victim->job_id, serve::JobState::ShedQueueFull, t.id());
    }
    sample_depths(t);
  }

  /// Moves `job_id` from `from` to `to` by one hop of `kind` (Requeued,
  /// Stolen or FailedOver): counts the hop out of `from` and into `to`,
  /// makes `to` the owner and records the hop. The caller then queues or
  /// dispatches the job there.
  void move_job(Shard& from, Shard& to, int job_id, serve::JobEventKind kind) {
    using S = FleetDeviceStats;
    const bool requeue = kind == serve::JobEventKind::Requeued;
    const bool steal = kind == serve::JobEventKind::Stolen;
    ++(from.stats.*(requeue ? &S::requeued_out
                    : steal ? &S::stolen_out
                            : &S::failed_over_out));
    ++(to.stats.*(requeue ? &S::requeued_in
                  : steal ? &S::stolen_in
                          : &S::failed_over_in));
    owners[static_cast<std::size_t>(job_id)] = to.id();
    job(job_id).state = serve::JobState::Queued;
    trace_job(job_id, kind, to.id(), from.id());
  }

  /// Ends a queued job whose deadline has passed (under expire_queued) as
  /// TimedOutQueued on `owner`, the device whose queue held it.
  bool expire_if_due(int job_id, const Shard& owner) {
    const serve::JobRecord& j = job(job_id);
    if (!config.base.expire_queued || j.deadline_at == 0 ||
        sim.now() <= j.deadline_at) {
      return false;
    }
    end_job(job_id, serve::JobState::TimedOutQueued, owner.id());
    return true;
  }

  /// Schedules the straggler check of a fresh primary dispatch: if the job
  /// is still inflight on the same attempt after hedge_threshold x the
  /// class's running mean winner service time, hedge it. No-op (and no
  /// event) until the class has hedge_min_samples completions — and always
  /// when hedging is off, keeping the schedule untouched.
  void maybe_schedule_hedge(int job_id, std::size_t attempt_index) {
    if (!config.hedging) return;
    const ClassService& cs = class_service[job(job_id).klass];
    if (cs.count < config.hedge_min_samples) return;
    const double mean = cs.sum_ns / static_cast<double>(cs.count);
    const auto wait = std::max<DurationNs>(
        1, static_cast<DurationNs>(std::llround(config.hedge_threshold *
                                                mean)));
    // When the job has outlived the threshold, re-dispatch it on the
    // lowest-index idle healthy peer. First completion wins, the loser is
    // cancelled — all deterministic.
    sim.schedule(wait, [this, job_id, attempt_index] {
      const JobExec& ex = exec(job_id);
      if (ex.primary_attempt != static_cast<int>(attempt_index)) return;
      if (ex.hedge_attempt != -1) return;
      const Attempt& a = attempts[attempt_index];
      if (!a.viable || job(job_id).state != serve::JobState::Inflight) return;
      Shard* peer = claim_peer([&a](const Shard& p) {
        return p.index != a.shard && p.queue.empty() && p.inflight == 0;
      });
      if (peer != nullptr) {
        start_attempt(*peer, job_id, AttemptKind::Hedge,
                      static_cast<int>(a.shard));
      }
    });
  }

  /// Claims the lowest-index healthy peer that `eligible` accepts and that
  /// can dispatch now, behind its health gate; null when none.
  template <typename Eligible>
  Shard* claim_peer(Eligible eligible) {
    for (Shard& peer : shards) {
      if (peer.healthy() && eligible(peer) && can_dispatch(peer) &&
          gate(peer)) {
        return &peer;
      }
    }
    return nullptr;
  }

  void pump(Shard& s) {
    while (!s.queue.empty() && can_dispatch(s)) {
      const serve::QueuedJob next = s.queue.pop_front();
      if (expire_if_due(next.job_id, s)) continue;
      if (!gate(s)) {
        // Quarantined device: keep FIFO order and stop pumping; the job
        // waits for a rebalance, a steal, or the breaker's probe window.
        s.queue.restore_front(next);
        break;
      }
      start_attempt(s, next.job_id);
    }
    sample_depths(s);
  }

  void try_steal(Shard& thief) {
    if (!config.work_stealing || !thief.healthy()) return;
    while (thief.queue.empty() && can_dispatch(thief)) {
      Shard* victim = nullptr;
      for (Shard& other : shards) {
        if (other.index == thief.index || other.queue.empty()) continue;
        if (victim == nullptr || other.queue.size() > victim->queue.size()) {
          victim = &other;
        }
      }
      if (victim == nullptr) return;
      const serve::QueuedJob q = victim->queue.pop_back();
      // Expired where it sat; the victim still owns (and accounts) it.
      if (expire_if_due(q.job_id, *victim)) {
        sample_depths(*victim);
        continue;
      }
      if (!gate(thief)) {
        victim->queue.restore_back(q);
        return;
      }
      move_job(*victim, thief, q.job_id, serve::JobEventKind::Stolen);
      start_attempt(thief, q.job_id);
      sample_depths(*victim);
    }
  }

  /// Places `q`, queued on or displaced from `from`, on another healthy
  /// device through the placer and queues it there by a `kind` hop; false
  /// when the placer finds no device but `from`.
  bool relocate(Shard& from, const serve::QueuedJob& q,
                serve::JobEventKind kind) {
    const auto target = placer.place(snapshot_loads(), job(q.job_id).klass);
    if (!target.has_value() || *target == from.index) return false;
    Shard& t = shards[*target];
    move_job(from, t, q.job_id, kind);
    enqueue(t, q);
    return true;
  }

  /// Moves the queued jobs of a freshly-tripped device to healthy peers.
  /// Jobs with no healthy target stay queued on the tripped device (FIFO
  /// order preserved) and wait for its half-open probe window.
  void rebalance_from(Shard& s) {
    std::vector<serve::QueuedJob> pending;
    while (!s.queue.empty()) pending.push_back(s.queue.pop_front());
    std::vector<serve::QueuedJob> kept;
    for (const serve::QueuedJob& q : pending) {
      if (!relocate(s, q, serve::JobEventKind::Requeued)) kept.push_back(q);
    }
    for (const serve::QueuedJob& q : kept) s.queue.restore_back(q);
    sample_depths(s);
    pump_peers(s);
  }

  void pump_peers(const Shard& s) {
    for (Shard& t : shards) {
      if (t.index != s.index) pump(t);
    }
  }

  /// Feeds one terminal job outcome to its class breaker and to the owning
  /// device's health breaker; a fresh trip of the latter quarantines the
  /// device and rebalances its queue.
  void feed_breakers(Shard& s, std::size_t klass, bool failure) {
    for (fault::CircuitBreaker* b :
         {s.breaker_for(klass), s.device_breaker.get()}) {
      if (b == nullptr) continue;
      if (failure) {
        b->record_failure(sim.now());
      } else {
        b->record_success(sim.now());
      }
    }
    if (s.device_breaker == nullptr) return;
    sample_breaker(s);
    if (s.device_breaker->trips() > s.seen_trips) {
      s.seen_trips = s.device_breaker->trips();
      rebalance_from(s);
    }
  }

  /// Requeues one displaced job to a healthy survivor through the placer,
  /// consuming one unit of its failover budget; with no budget left or no
  /// survivor the job terminates as ShedFailoverExhausted (fleet-owned,
  /// owner -1 — like ShedNoDevice).
  void requeue_or_exhaust(Shard& from, const serve::QueuedJob& q) {
    JobExec& ex = exec(q.job_id);
    if (ex.failovers < config.failover_budget &&
        relocate(from, q, serve::JobEventKind::FailedOver)) {
      ++ex.failovers;
      return;
    }
    owners[static_cast<std::size_t>(q.job_id)] = -1;
    end_job(q.job_id, serve::JobState::ShedFailoverExhausted, -1, from.id());
  }

  /// Displaces every queued job and every viable attempt running on `s` to
  /// the survivors (or exhausts them). Shared by the down transition and
  /// the integrity blocklist; the caller has already marked the shard
  /// unhealthy (down or blocklisted). Zombie coroutines keep draining;
  /// their outcomes are discarded.
  void displace_work(Shard& s) {
    while (!s.queue.empty()) {
      requeue_or_exhaust(s, s.queue.pop_front());
    }
    sample_depths(s);
    const std::size_t num_attempts = attempts.size();
    for (std::size_t i = 0; i < num_attempts; ++i) {
      Attempt& a = attempts[i];
      if (a.shard != s.index || !a.viable) continue;
      JobExec& ex = exec(a.job_id);
      if (a.kind == AttemptKind::Verify) {
        // An in-flight verification dies with its device: the job itself
        // already completed, so resolve the vote on the digests we have.
        if (ex.verify_attempt == static_cast<int>(i)) {
          cancel(a);
          ex.verify_attempt = -1;
          resolve_integrity(a.job_id);
        }
        continue;
      }
      if (job(a.job_id).state != serve::JobState::Inflight) continue;
      cancel(a);
      const int sibling = ex.sibling_of(static_cast<int>(i));
      if (sibling != -1 && attempts[static_cast<std::size_t>(sibling)].viable) {
        // The racing attempt survives on its own (up) device; the job
        // rides on without a failover hop.
        ex.primary_attempt = sibling;
        ex.hedge_attempt = -1;
        continue;
      }
      ex.primary_attempt = -1;
      ex.hedge_attempt = -1;
      requeue_or_exhaust(s, queued(a.job_id));
    }
    // Survivors pick the displaced work up immediately.
    pump_peers(s);
    for (Shard& t : shards) try_steal(t);
    maybe_finish();
  }

  // --- integrity pipeline ---------------------------------------------------
  // Everything below is post-completion bookkeeping plus (for non-Trust
  // policies) verification re-dispatches. Under Trust it schedules no event,
  // so the schedule is the one without the pipeline.

  /// The job's true functional-output digest: a pure function of (class,
  /// job id), device-independent, so results from different devices are
  /// directly comparable (the PR-1 cross-mode digest model).
  std::uint64_t job_expected_digest(int job_id) {
    Fnv1a64 hash;
    hash.mix_string(config.base.classes[job(job_id).klass].item.type_name);
    hash.mix_u64(static_cast<std::uint64_t>(job_id));
    return hash.value();
  }

  /// Seeded per-job spot-check selection (SpotCheck policy).
  bool spotcheck_selected(int job_id) const {
    Fnv1a64 hash;
    hash.mix_u64(config.base.seed);
    hash.mix_u64(0xa0761d6478bd642fULL);  // spot-check draw stream
    hash.mix_u64(static_cast<std::uint64_t>(job_id));
    const double u = static_cast<double>(hash.value() >> 11) * 0x1.0p-53;
    return u < config.spotcheck_rate;
  }

  /// Consumes one result digest produced on shard `s` for `job_id`: draws
  /// the device's corruption decision against its fault plan and appends
  /// the (possibly corrupted) digest to the job's vote set.
  void consume_result(Shard& s, int job_id) {
    JobExec& ex = exec(job_id);
    HQ_CHECK_MSG(ex.num_results < 3,
                 "integrity: job " << job_id << " consumed a fourth result");
    ConsumedResult r;
    r.shard = s.index;
    r.digest = job_expected_digest(job_id);
    if (s.injector != nullptr) {
      const std::uint64_t mask = fault::sdc_corruption_mask(
          s.injector->plan(), sim.now(), static_cast<std::uint64_t>(job_id),
          static_cast<std::uint64_t>(ex.num_results));
      if (mask != 0) {
        r.digest ^= mask;
        r.corrupted = true;
        ++s.stats.sdc_injected;
      }
    }
    ex.results[ex.num_results++] = r;
  }

  /// The winning completion of `job_id` (on shard `s`) just resolved
  /// successfully: consume its digest and, per policy, dispatch a
  /// verification re-execution or settle the job immediately.
  void on_primary_complete(Shard& s, int job_id) {
    consume_result(s, job_id);
    const bool verify =
        config.integrity == IntegrityPolicy::Dmr ||
        (config.integrity == IntegrityPolicy::SpotCheck &&
         spotcheck_selected(job_id));
    if (!verify || !dispatch_verification(job_id)) resolve_integrity(job_id);
  }

  /// Re-executes `job_id` on the lowest-index healthy device that produced
  /// none of its results yet. Re-executions ride on the per-job failover
  /// budget; returns false (caller resolves on what it has) when the
  /// budget, capacity, or the supply of fresh peers runs out.
  bool dispatch_verification(int job_id) {
    const JobExec& ex = exec(job_id);
    if (ex.failovers >= config.failover_budget) return false;
    Shard* peer = claim_peer([&ex](const Shard& p) {
      return std::none_of(
          ex.results, ex.results + ex.num_results,
          [&p](const ConsumedResult& r) { return r.shard == p.index; });
    });
    if (peer == nullptr) return false;
    start_attempt(*peer, job_id, AttemptKind::Verify,
                  ex.num_results > 0 ? static_cast<int>(ex.results[0].shard)
                                     : -1);
    return true;
  }

  /// A verification attempt drained. A cancelled (zombie) attempt was
  /// already resolved at its cancellation site; a quarantined re-execution
  /// yields no usable digest and settles on what exists; otherwise its
  /// digest joins the vote, a first mismatch escalates to the tiebreak,
  /// and the vote settles.
  void on_verify_complete(std::size_t attempt_index, bool quarantined) {
    Attempt& a = attempts[attempt_index];
    if (!a.viable) return;
    JobExec& ex = exec(a.job_id);
    HQ_CHECK_MSG(ex.verify_attempt == static_cast<int>(attempt_index),
                 "integrity: verify attempt mismatch for job " << a.job_id);
    ex.verify_attempt = -1;
    if (quarantined) {
      resolve_integrity(a.job_id);
      return;
    }
    consume_result(shards[a.shard], a.job_id);
    if (ex.num_results == 2 &&
        ex.results[0].digest != ex.results[1].digest &&
        dispatch_verification(a.job_id)) {
      return;  // 2-way tie: the third execution will settle the vote
    }
    resolve_integrity(a.job_id);
  }

  /// Final classification and vote for one job's consumed digests; runs
  /// exactly once per job (first caller wins). Partitions the job's
  /// corrupted results into detected (participated in a mismatching
  /// comparison) and missed (never compared, or compared and matched) —
  /// the exact sdc_injected == sdc_detected + sdc_missed invariant — then
  /// attributes blame and feeds the per-device SDC scores.
  void resolve_integrity(int job_id) {
    JobExec& ex = exec(job_id);
    if (ex.integrity_resolved) return;
    ex.integrity_resolved = true;
    if (ex.num_results == 0) return;
    bool all_equal = true;
    for (int i = 1; i < ex.num_results; ++i) {
      if (ex.results[i].digest != ex.results[0].digest) all_equal = false;
    }
    for (int i = 0; i < ex.num_results; ++i) {
      const ConsumedResult& r = ex.results[i];
      if (!r.corrupted) continue;
      if (ex.num_results >= 2 && !all_equal) {
        ++shards[r.shard].stats.sdc_detected;
      } else {
        ++fleet_report.sdc_missed;
      }
    }
    if (ex.num_results < 2) return;  // no comparison, no vote
    // Vote: matching results vindicate every participant. On a mismatch,
    // a result that matches no other is blamed: both sides of a 2-way
    // mismatch with no tiebreak, the odd one out of the 3-way vote (whose
    // first two results always differ), or everyone when all three differ.
    for (int i = 0; i < ex.num_results; ++i) {
      bool blamed = !all_equal;
      for (int k = 0; k < ex.num_results; ++k) {
        if (k != i && ex.results[k].digest == ex.results[i].digest) {
          blamed = false;
        }
      }
      Shard& s = shards[ex.results[i].shard];
      if (blamed) {
        trace_job(job_id, serve::JobEventKind::CorruptionDetected, s.id());
      }
      update_sdc_score(s, blamed);
    }
  }

  void update_sdc_score(Shard& s, bool blamed) {
    const double alpha = config.sdc_score_alpha;
    FleetDeviceStats& st = s.stats;
    st.sdc_score = (1.0 - alpha) * st.sdc_score + (blamed ? alpha : 0.0);
    if (blamed) ++st.sdc_blamed;
    if (s.sdc_score_series != nullptr) {
      s.sdc_score_series->sample(sim.now(), st.sdc_score);
    }
    if (blamed && !st.blocklisted &&
        st.sdc_score >= config.sdc_blocklist_threshold) {
      blocklist_shard(s);
    }
  }

  /// Permanently removes `s` from service: no further placements, steals,
  /// hedges, or verifications land here; its queued and running work is
  /// displaced to survivors under the failover budget; and the device
  /// breaker (when enabled) enters its terminal Blocklisted state.
  /// Distinct from the availability quarantine: the device is up, just
  /// untrusted.
  void blocklist_shard(Shard& s) {
    HQ_CHECK(!s.stats.blocklisted);
    s.stats.blocklisted = true;
    s.stats.blocklisted_at = sim.now();
    if (s.device_breaker != nullptr) {
      s.device_breaker->blocklist(sim.now());
      sample_breaker(s);
    }
    displace_work(s);
  }

  /// Schedules the device's next lifecycle edge (self-rechaining). The
  /// drained guard stops the chain once the run is over — one trailing
  /// event may still fire, which is why the run totals freeze at drain.
  void schedule_transitions(Shard& s) {
    if (s.lifecycle_faults == nullptr) return;
    const auto next = s.lifecycle_faults->next_transition(sim.now());
    if (!next.has_value()) return;
    sim.schedule_at(next->at, [this, index = s.index] {
      Shard& sh = shards[index];
      if (drained.fired()) return;
      const bool up = sh.lifecycle_faults->up(sim.now());
      if (up && sh.down) {
        sh.down = false;
        pump(sh);       // queue is empty after the down drain; harmless
        try_steal(sh);  // a newly-healthy idle device takes over queued work
      } else if (!up && !sh.down) {
        // The device goes down: its work fails over to the survivors.
        sh.down = true;
        ++sh.stats.lifecycle_downs;
        displace_work(sh);
      }
      schedule_transitions(sh);
    });
  }

  void on_arrival(std::size_t klass) {
    const TimeNs now = sim.now();
    const int job_id = static_cast<int>(jobs.size());
    serve::JobRecord& rec = jobs.emplace_back();
    rec.job_id = job_id;
    rec.klass = klass;
    rec.arrived_at = now;
    rec.deadline_at = config.base.deadline > 0 ? now + config.base.deadline : 0;
    execs.emplace_back();
    owners.push_back(-1);
    trace_job(job_id, serve::JobEventKind::Arrived);

    const auto target = placer.place(snapshot_loads(), klass);
    if (!target.has_value()) {
      end_job(job_id, serve::JobState::ShedNoDevice, -1);
      return;
    }
    Shard& s = shards[*target];
    ++s.stats.placed;
    owners[static_cast<std::size_t>(job_id)] = s.id();
    trace_job(job_id, serve::JobEventKind::Placed, s.id());

    fault::CircuitBreaker* breaker = s.breaker_for(klass);
    if (breaker != nullptr && !breaker->allow(now)) {
      end_job(job_id, serve::JobState::ShedBreaker, s.id());
      return;
    }

    // Fast path: empty queue with dispatch and capacity headroom, behind
    // the device health gate.
    if (s.queue.empty() && can_dispatch(s) &&
        (config.base.queue_cap == 0 || s.inflight < config.base.queue_cap) &&
        gate(s)) {
      start_attempt(s, job_id);
      return;
    }

    enqueue(s, queued(job_id));
    if (job(job_id).state == serve::JobState::Queued) {
      trace_job(job_id, serve::JobEventKind::Queued, s.id());
    }
    pump(s);
    // A job queued behind a busy device is immediately available to idle
    // peers; without this, a never-loaded device would only ever look for
    // work at its own completion boundaries (of which it has none).
    if (config.work_stealing && !s.queue.empty()) {
      for (Shard& other : shards) try_steal(other);
    }
  }

  void maybe_finish() {
    if (!admission_closed) return;
    std::size_t inflight_total = 0;
    bool queues_empty = true;
    for (const Shard& s : shards) {
      inflight_total += s.inflight;
      if (!s.queue.empty()) queues_empty = false;
    }
    if (inflight_total != 0) return;
    if (queues_empty) {
      if (!drained.fired()) {
        // Freeze the run totals here: lifecycle transition events may
        // outlive the drain and would otherwise stretch the clock (and the
        // devices' lazy idle-power integrals). Without lifecycle faults no
        // event outlives the drain and these equal the post-run reads.
        finished_at = sim.now();
        drain_time = finished_at - window_closed_at;
        for (Shard& s : shards) {
          s.final_energy = s.device.energy();
          s.final_occupancy = s.device.average_occupancy();
        }
        drained.fire();
      }
      return;
    }
    // Jobs are stuck on quarantined devices and nothing inflight will pump
    // them. Schedule one retry pump per blocked shard at its next possible
    // admission instant (the breaker's cooldown end). Each retry dispatches
    // a half-open probe or expires queued jobs, so the drain terminates.
    const TimeNs now = sim.now();
    for (Shard& s : shards) {
      if (s.queue.empty() || s.retry_scheduled) continue;
      TimeNs wake = now + 1;
      if (s.device_breaker != nullptr && s.device_breaker->open()) {
        wake = std::max(wake, s.device_breaker->open_until());
      }
      s.retry_scheduled = true;
      sim.schedule_at(wake, [this, idx = s.index] {
        Shard& sh = shards[idx];
        sh.retry_scheduled = false;
        pump(sh);
        for (Shard& other : shards) try_steal(other);
        maybe_finish();
      });
    }
  }

  // --- drain: functions of the drained state ---------------------------------
  /// What the drain's pass over the jobs gathers for one device: its class
  /// tallies and latency samples.
  struct DeviceDrain {
    std::vector<serve::ClassStats> classes;
    RunningStats turnaround;
    std::vector<double> turnaround_samples;
    RunningStats queue_wait;
  };

  /// Fills `s.stats`: the device's serving report from its accounting and
  /// drain samples, its name and its health-breaker trajectory.
  void fill_device_stats(Shard& s, const check::ServeAccounting& acc,
                         DeviceDrain& drain) {
    const serve::ServiceConfig& base = config.base;
    serve::ServeReport& report = s.stats.report;
    report.classes = std::move(drain.classes);
    for (std::size_t i = 0; i < base.classes.size(); ++i) {
      serve::ClassStats& c = report.classes[i];
      c.name = base.classes[i].item.type_name;
      c.priority = base.classes[i].priority;
      if (!report.workload.empty()) report.workload += '+';
      report.workload += c.name;
    }
    report.num_streams = base.num_streams;
    report.memory_sync = base.memory_sync;
    report.seed = base.seed;
    report.window = base.window;
    report.mean_interarrival = base.mean_interarrival;
    report.deadline = base.deadline;
    report.queue_cap = base.queue_cap;
    report.max_inflight = base.max_inflight;
    report.shed_policy = serve::shed_policy_name(base.shed_policy);
    report.expire_queued = base.expire_queued;
    report.controller_enabled = base.controller.enabled;
    report.breaker_enabled = base.breaker_enabled;
    report.fault_plan =
        fault::fault_plan_to_string(effective_fault_plan(config, s.index));

    static_cast<serve::JobTally&>(report) = acc;
    serve::fill_slo(report, finished_at, s.final_energy);
    report.drain_time = drain_time;
    report.average_occupancy = s.final_occupancy;
    if (report.completed > 0) {
      report.mean_turnaround = static_cast<DurationNs>(drain.turnaround.mean());
      report.max_turnaround = static_cast<DurationNs>(drain.turnaround.max());
      report.p95_turnaround = static_cast<DurationNs>(
          percentile(std::move(drain.turnaround_samples), 95));
    }
    if (drain.queue_wait.count() > 0) {
      report.mean_queue_wait = static_cast<DurationNs>(drain.queue_wait.mean());
      report.max_queue_wait = static_cast<DurationNs>(drain.queue_wait.max());
    }
    report.peak_queue_depth = s.queue.peak_depth();
    report.peak_inflight = s.peak_inflight;

    report.controller_engagements = s.controller.engagements();
    report.controller_releases = s.controller.releases();
    report.pseudo_burst_jobs = s.pseudo_burst_jobs;
    for (std::size_t i = 0; i < s.breakers.size(); ++i) {
      const fault::CircuitBreaker& b = *s.breakers[i];
      serve::ClassStats& c = report.classes[i];
      c.breaker_trips = b.trips();
      c.breaker_probes = b.probes();
      c.breaker_rejected = b.rejected();
      c.breaker_final_state = fault::breaker_state_name(b.state());
      report.breaker_trips += b.trips();
      report.breaker_probes += b.probes();
      report.breaker_rejected += b.rejected();
    }
    if (s.injector != nullptr) {
      report.faults_injected = s.injector->stats().total();
    }
    report.trace_digest = trace::digest(*s.recorder);

    FleetDeviceStats& stats = s.stats;
    stats.name = s.spec.name;
    if (s.device_breaker != nullptr) {
      stats.breaker_trips = s.device_breaker->trips();
      stats.breaker_probes = s.device_breaker->probes();
      stats.breaker_rejected = s.device_breaker->rejected();
      stats.breaker_final_state =
          fault::breaker_state_name(s.device_breaker->state());
    }
  }

  /// Finalizes the device's telemetry and adds its serving, movement,
  /// fault-domain, injector and integrity counters to its registry.
  void export_device_counters(Shard& s, const check::ServeAccounting& acc,
                              const fault::FaultStats& faults) {
    const FleetDeviceStats& stats = s.stats;
    const serve::ServeReport& report = stats.report;
    s.telemetry->finalize();
    obs::MetricsRegistry& reg = s.telemetry->registry();
    // The serving counter block.
    reg.counter("serve_arrived", "Jobs that arrived").add(acc.arrived);
    reg.counter("serve_completed_ok", "Jobs completed within deadline")
        .add(acc.completed_ok);
    reg.counter("serve_completed_late", "Jobs completed past deadline")
        .add(acc.completed_late);
    reg.counter("serve_shed_queue_full", "Jobs shed by the queue")
        .add(acc.shed_queue_full);
    reg.counter("serve_shed_breaker", "Jobs shed by open breakers")
        .add(acc.shed_breaker);
    reg.counter("serve_timed_out_queued", "Jobs expired in the queue")
        .add(acc.timed_out_queued);
    reg.counter("serve_quarantined", "Dispatched jobs that failed")
        .add(acc.quarantined);
    reg.counter("serve_breaker_trips", "Breaker trips across classes")
        .add(report.breaker_trips);
    reg.counter("serve_pseudo_burst_jobs",
                "Jobs forced into pseudo-burst transfers")
        .add(report.pseudo_burst_jobs);
    reg.counter("serve_faults_injected", "Faults the injector fired")
        .add(report.faults_injected);
    // Fleet movement and device health-breaker counters. Always
    // registered (0 when the mechanism is off) so every device exports
    // the same series set.
    reg.counter("device_placed", "Arrivals the placer routed here")
        .add(stats.placed);
    reg.counter("device_requeued_in", "Jobs rebalanced onto this device")
        .add(stats.requeued_in);
    reg.counter("device_requeued_out", "Jobs rebalanced off this device")
        .add(stats.requeued_out);
    reg.counter("device_stolen_in", "Jobs this device stole from peers")
        .add(stats.stolen_in);
    reg.counter("device_stolen_out", "Jobs peers stole from this device")
        .add(stats.stolen_out);
    reg.counter("device_breaker_trips", "Device health-breaker trips")
        .add(stats.breaker_trips);
    reg.counter("device_breaker_probes",
                "Device health-breaker half-open probes")
        .add(stats.breaker_probes);
    reg.counter("device_breaker_rejected",
                "Admissions the device health breaker rejected")
        .add(stats.breaker_rejected);
    // Fleet fault-domain counters: always registered (0 when the
    // mechanisms are off) so rollup shapes stay identical per device.
    reg.counter("device_failed_over_in", "Jobs failed over onto this device")
        .add(stats.failed_over_in);
    reg.counter("device_failed_over_out",
                "Jobs moved away when this device went down")
        .add(stats.failed_over_out);
    reg.counter("device_hedges_run", "Straggler hedge attempts dispatched here")
        .add(stats.hedges_run);
    reg.counter("device_attempts_cancelled",
                "Attempts cancelled here (failover and lost hedge races)")
        .add(stats.attempts_cancelled);
    reg.counter("device_lifecycle_downs",
                "Lifecycle down transitions (a crash counts once)")
        .add(stats.lifecycle_downs);
    // Injector fault breakdown (FaultStats), surfaced per device so the
    // fleet rollup exports hq_fleet_fault_* series.
    reg.counter("fault_injected_total", "Fault events the injector fired")
        .add(faults.total());
    reg.counter("fault_copy_stalls", "Injected copy-engine stalls")
        .add(faults.copy_stalls);
    reg.counter("fault_copy_slowdowns", "Injected copy slowdowns")
        .add(faults.copy_slowdowns);
    reg.counter("fault_throttled_copies",
                "Copies derated by thermal throttle or degradation")
        .add(faults.throttled_copies);
    reg.counter("fault_launch_failures",
                "Kernel launch faults injected (before retries)")
        .add(faults.launch_failures);
    reg.counter("fault_launch_retries_exhausted",
                "Launches aborted after the retry budget")
        .add(faults.launch_aborts);
    reg.counter("fault_host_alloc_failures",
                "Injected host allocation failures")
        .add(faults.host_alloc_failures);
    // Integrity-pipeline counters.
    reg.counter("device_sdc_injected", "Corrupted results this device produced")
        .add(stats.sdc_injected);
    reg.counter("device_sdc_detected",
                "Corrupted results from this device caught by a "
                "verification comparison")
        .add(stats.sdc_detected);
    reg.counter("device_sdc_blamed", "Vote outcomes that blamed this device")
        .add(stats.sdc_blamed);
    reg.counter("device_verifications_run",
                "Verification re-executions run on this device")
        .add(stats.verifications_run);
    reg.gauge("device_blocklisted",
              "1 when the integrity pipeline blocklisted this device")
        .set(stats.blocklisted ? 1 : 0);
  }

  /// The fleet aggregates: the config echo, the run totals, and every fleet
  /// counter that is a sum of device counters. Each counter has one home, so
  /// only hedge_wins, hedges_cancelled and sdc_missed are counted in place.
  void fill_fleet_totals(FleetReport& fleet) const {
    fleet.num_devices = shards.size();
    fleet.placement = placement_policy_name(config.placement);
    fleet.copy_penalty = config.copy_penalty;
    fleet.work_stealing = config.work_stealing;
    fleet.device_breaker_enabled = config.device_breaker_enabled;
    fleet.seed = config.base.seed;
    fleet.hedging = config.hedging;
    fleet.failover_budget = config.failover_budget;
    fleet.integrity_policy = integrity_policy_name(config.integrity);
    fleet.spotcheck_rate = config.spotcheck_rate;
    fleet.sdc_blocklist_threshold = config.sdc_blocklist_threshold;
    Joules energy = 0;  // summed over devices
    for (const FleetDeviceStats& dev : fleet.devices) {
      if (fleet.workload.empty()) fleet.workload = dev.report.workload;
      energy += dev.report.energy;
      fleet.requeued += dev.requeued_in;
      fleet.stolen += dev.stolen_in;
      fleet.device_breaker_trips += dev.breaker_trips;
      fleet.device_breaker_probes += dev.breaker_probes;
      fleet.device_breaker_rejected += dev.breaker_rejected;
      fleet.failed_over += dev.failed_over_in;
      fleet.hedges_launched += dev.hedges_run;
      fleet.attempts_cancelled += dev.attempts_cancelled;
      fleet.sdc_injected += dev.sdc_injected;
      fleet.sdc_detected += dev.sdc_detected;
      fleet.reexecutions += dev.verifications_run;
      fleet.devices_blocklisted += dev.blocklisted ? 1 : 0;
    }
    serve::fill_slo(fleet, finished_at, energy);
    fleet.drain_time = drain_time;
    // Exact partition: every corrupted result was either caught by a
    // mismatching comparison or served silently — nothing in between.
    HQ_CHECK_MSG(fleet.sdc_injected == fleet.sdc_detected + fleet.sdc_missed,
                 "integrity accounting broken: "
                     << fleet.sdc_injected << " injected != "
                     << fleet.sdc_detected << " detected + " << fleet.sdc_missed
                     << " missed");
  }

  /// Fleet-scope observability. Deterministic latency breakdown per job:
  /// queue wait (arrival -> dispatch), placement (arrival -> the last
  /// placement/requeue/steal hop), device service (dispatch -> completion),
  /// turnaround. Histograms plus exact percentiles — sorted whole-sample
  /// selection, not bucket interpolation — and the fleet movement counters.
  std::shared_ptr<obs::MetricsRegistry> fleet_scope_metrics(
      const FleetReport& fleet) {
    auto registry = std::make_shared<obs::MetricsRegistry>();
    obs::MetricsRegistry& reg = *registry;

    std::vector<double> wait, placement_lat, service, turnaround;
    for (const serve::JobRecord& job : jobs) {
      if (!serve::is_dispatched(job.state)) continue;
      wait.push_back(static_cast<double>(job.dispatched_at - job.arrived_at));
      // Placement latency: 0 for jobs dispatched where first placed; the
      // time to the final hop for rebalanced/stolen jobs.
      TimeNs placed_at = job.arrived_at;
      for (const serve::JobEvent& e : lifecycle->events(job.job_id)) {
        if (e.at > job.dispatched_at) break;
        if (e.kind == serve::JobEventKind::Placed ||
            e.kind == serve::JobEventKind::Requeued ||
            e.kind == serve::JobEventKind::Stolen ||
            e.kind == serve::JobEventKind::FailedOver) {
          placed_at = e.at;
        }
      }
      placement_lat.push_back(static_cast<double>(placed_at - job.arrived_at));
      if (serve::is_completed(job.state)) {
        service.push_back(
            static_cast<double>(job.completed_at - job.dispatched_at));
        turnaround.push_back(
            static_cast<double>(job.completed_at - job.arrived_at));
      }
    }

    const std::vector<double> wait_bounds = {1e4, 1e5, 1e6, 5e6,
                                             1e7, 5e7, 1e8, 5e8};
    const std::vector<double> service_bounds = {1e5, 1e6, 5e6, 1e7,
                                                5e7, 1e8, 5e8, 1e9};
    const auto breakdown = [&reg](const std::string& name,
                                  const std::vector<double>& bounds,
                                  const std::string& help,
                                  const std::vector<double>& samples) {
      obs::Histogram& h = reg.histogram(name, bounds, help);
      for (double v : samples) h.record(v);
      const std::pair<const char*, double> pcts[] = {
          {"_p50_ns", 50}, {"_p90_ns", 90}, {"_p95_ns", 95}, {"_p99_ns", 99}};
      for (const auto& [suffix, p] : pcts) {
        reg.gauge(name + suffix, "Exact percentile of " + name)
            .set(percentile(samples, p));
      }
      const double sum = std::accumulate(samples.begin(), samples.end(), 0.0);
      const auto n = static_cast<double>(samples.size());
      reg.gauge(name + "_max_ns", "Maximum of " + name)
          .set(samples.empty() ? 0 : std::ranges::max(samples));
      reg.gauge(name + "_mean_ns", "Mean of " + name)
          .set(samples.empty() ? 0 : sum / n);
    };
    breakdown("fleet_job_queue_wait_ns", wait_bounds,
              "Queue wait per dispatched job (arrival to dispatch)", wait);
    breakdown("fleet_job_placement_ns", wait_bounds,
              "Arrival to final placement hop per dispatched job",
              placement_lat);
    breakdown("fleet_job_service_ns", service_bounds,
              "Device service time per completed job (dispatch to done)",
              service);
    breakdown("fleet_job_turnaround_ns", service_bounds,
              "Turnaround per completed job (arrival to done)", turnaround);

    reg.counter("fleet_requeue_hops", "Requeue hops across the fleet")
        .add(lifecycle->requeue_hops());
    reg.counter("fleet_steal_hops", "Steal hops across the fleet")
        .add(lifecycle->steal_hops());
    reg.counter("fleet_shed_no_device", "Arrivals with no healthy device")
        .add(fleet.shed_no_device);
    reg.counter("fleet_requeued", "Jobs rebalanced between devices")
        .add(fleet.requeued);
    reg.counter("fleet_stolen", "Jobs stolen between devices")
        .add(fleet.stolen);
    reg.counter("fleet_device_breaker_trips", "Device health-breaker trips")
        .add(fleet.device_breaker_trips);
    reg.counter("fleet_device_breaker_probes",
                "Device health-breaker half-open probes")
        .add(fleet.device_breaker_probes);
    reg.counter("fleet_device_breaker_rejected",
                "Admissions device health breakers rejected")
        .add(fleet.device_breaker_rejected);
    reg.counter("fleet_failed_over", "Failover hops across the fleet")
        .add(fleet.failed_over);
    reg.counter("fleet_shed_failover_exhausted",
                "Jobs dropped after exhausting their failover budget")
        .add(fleet.shed_failover_exhausted);
    reg.counter("fleet_hedges_launched", "Straggler hedge attempts launched")
        .add(fleet.hedges_launched);
    reg.counter("fleet_hedge_wins", "Completions won by the hedge attempt")
        .add(fleet.hedge_wins);
    reg.counter("fleet_hedges_cancelled",
                "Losing attempts of hedged jobs cancelled")
        .add(fleet.hedges_cancelled);
    reg.counter("fleet_attempts_cancelled",
                "All cancelled attempts (failover and hedge)")
        .add(fleet.attempts_cancelled);
    reg.counter("fleet_sdc_injected", "Corrupted results produced fleet-wide")
        .add(fleet.sdc_injected);
    reg.counter("fleet_sdc_detected",
                "Corrupted results caught by a verification comparison")
        .add(fleet.sdc_detected);
    reg.counter("fleet_sdc_missed",
                "Corrupted results served without a mismatching compare")
        .add(fleet.sdc_missed);
    reg.counter("fleet_reexecutions", "Verification re-executions dispatched")
        .add(fleet.reexecutions);
    reg.counter("fleet_devices_blocklisted",
                "Devices blocklisted by the integrity pipeline")
        .add(fleet.devices_blocklisted);
    return registry;
  }
};

FleetService::RunState::RunState(const FleetConfig& cfg)
    : config(cfg),
      rng(cfg.base.seed),
      placer(cfg.placement, cfg.copy_penalty),
      class_service(cfg.base.classes.size()) {
  const std::vector<gpu::DeviceSpec> raw_specs = cfg.device_specs();
  for (std::size_t d = 0; d < raw_specs.size(); ++d) {
    shards.emplace_back(d, sim, cfg, raw_specs[d], &jobs);
  }

  // The observability plane: one TelemetryObserver (and registry) per
  // device, plus the serving-layer instruments.
  // Every shard registers the same instrument set up front so fleet rollups
  // merge identical shapes. Observers are passive and recording never
  // touches the simulator, so FleetReport bytes are identical either way.
  if (cfg.base.collect_metrics) {
    lifecycle = std::make_shared<serve::JobLifecycleTracer>();
    for (Shard& s : shards) {
      s.telemetry = std::make_shared<obs::TelemetryObserver>(s.spec);
      obs::MetricsRegistry& reg = s.telemetry->registry();
      s.queue_wait_hist = &reg.histogram(
          "serve_queue_wait_ns",
          {1e4, 1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8},
          "Admission-queue wait per dispatched job (arrival to dispatch)");
      s.queue_depth_series = &reg.series(
          "serve_queue_depth", "Admission-queue depth over virtual time");
      s.inflight_series = &reg.series(
          "serve_inflight", "Dispatched jobs in flight over virtual time");
      s.completed_series = &reg.series(
          "device_completed", "Jobs completed on this device, cumulative");
      if (cfg.device_breaker_enabled) {
        s.breaker_state_series = &reg.series(
            "device_breaker_state",
            "Device health breaker (0 closed, 1 open, 2 half-open, "
            "3 blocklisted)");
      }
      s.sdc_score_series = &reg.series(
          "device_sdc_score",
          "EWMA of SDC vote blame attributions over virtual time");
    }
  }

  for (Shard& s : shards) {
    s.attach_observers({&s.signals, &s.copy_depth, s.telemetry.get()});
    if (s.injector != nullptr && !s.breakers.empty()) {
      s.injector->set_launch_fault_hook(
          [sp = &s](TimeNs now, std::int32_t app_id, bool /*aborted*/) {
            sp->signals.record_class_failure(now, app_id);
          });
    }
    // Device-lifecycle schedules: apply the t=0 state and chain the first
    // transition event per device. No lifecycle faults => no events and no
    // state change (zero perturbation).
    if (s.lifecycle_faults == nullptr) continue;
    if (!s.lifecycle_faults->up(0)) {
      s.down = true;
      ++s.stats.lifecycle_downs;
    }
    schedule_transitions(s);
  }
}

sim::Task FleetService::job_lifecycle(RunState* st,
                                      std::size_t attempt_index) {
  RunState::Attempt& attempt = st->attempts[attempt_index];
  Shard& s = st->shards[attempt.shard];
  const int index = attempt.job_id;
  serve::JobRecord& job = st->job(index);
  fw::Kernel& app = *attempt.app;
  fw::Context& ctx = attempt.context;

  // Setup is host-side and instantaneous in virtual time, and happens per
  // attempt. Outcomes are attempt-local until the end: only the winning
  // attempt of a job (still viable, job still inflight) applies them;
  // cancelled attempts drain as zombies and discard theirs.
  bool quarantined = false;
  std::string quarantine_reason;
  if (s.allocate(app, ctx, &quarantined, &quarantine_reason)) {
    // An engaged overload controller turns memory sync on for this job
    // (pseudo-burst) even when the config leaves it off.
    const bool engaged = s.controller.engaged();
    if (engaged && !st->config.base.memory_sync) {
      job.pseudo_burst = true;
      ++s.pseudo_burst_jobs;
    }
    co_await s.run_stages(&app, &ctx, st->config.base.memory_sync || engaged,
                          &quarantined, &quarantine_reason);
  }

  // Frees mirror the harness: tracked buffers only, so partially allocated
  // (quarantined) attempts release exactly what they acquired.
  app.freeHostMemory(ctx);
  app.freeDeviceMemory(ctx);

  const bool winner =
      attempt.viable && job.state == serve::JobState::Inflight;
  if (winner) {
    job.completed_at = st->sim.now();
    if (quarantined) {
      job.state = serve::JobState::Quarantined;
      job.quarantine_reason = std::move(quarantine_reason);
    } else {
      const bool late =
          job.deadline_at != 0 && job.completed_at > job.deadline_at;
      job.state = late ? serve::JobState::CompletedLate
                       : serve::JobState::CompletedOk;
    }
    // The winner owns the job: account it here, cancel a racing hedge
    // sibling, and feed the health machinery exactly as the single-attempt
    // path always has.
    st->owners[static_cast<std::size_t>(index)] = s.id();
    const RunState::JobExec& ex = st->exec(index);
    const int sibling = ex.sibling_of(static_cast<int>(attempt_index));
    if (sibling != -1 && sibling != static_cast<int>(attempt_index)) {
      RunState::Attempt& other =
          st->attempts[static_cast<std::size_t>(sibling)];
      if (other.viable) {
        st->cancel(other);
        ++st->fleet_report.hedges_cancelled;
        st->trace_job(index, serve::JobEventKind::HedgeCancelled,
                      static_cast<int>(other.shard));
      }
    }
    if (attempt.kind == RunState::AttemptKind::Hedge) {
      ++st->fleet_report.hedge_wins;
    }
    if (!quarantined) {
      RunState::ClassService& cs = st->class_service[job.klass];
      ++cs.count;
      cs.sum_ns +=
          static_cast<double>(job.completed_at - job.dispatched_at);
    }

    st->feed_breakers(s, job.klass, quarantined);
    // The breakers saw the terminal state above; its event follows theirs.
    st->end_job(index, job.state, s.id());
    if (serve::is_completed(job.state)) {
      ++s.completed_jobs;
      if (s.completed_series != nullptr) {
        s.completed_series->sample(st->sim.now(),
                                   static_cast<double>(s.completed_jobs));
      }
      // Integrity: the winning result's digest enters the vote set and,
      // per policy, a verification re-execution is dispatched. Pure
      // post-completion bookkeeping — the job's state, timing, and
      // accounting above are already final.
      st->on_primary_complete(s, index);
    }
  }
  // Zombie attempts (cancelled by failover or a lost hedge race) change no
  // job state and feed no breaker: their outcome is void.

  // Verification attempts never win (their job already completed): their
  // digest joins the vote here instead. Runs before the inflight decrement
  // so a tiebreak dispatch keeps the drain barrier up.
  if (attempt.kind == RunState::AttemptKind::Verify) {
    st->on_verify_complete(attempt_index, quarantined);
  }

  --s.inflight;
  st->sample_depths(s);
  st->pump(s);
  st->try_steal(s);
  st->maybe_finish();
}

sim::Task FleetService::generator_task(RunState* st) {
  const serve::ServiceConfig& base = st->config.base;
  if (!base.arrivals.empty()) {
    for (const serve::Arrival& arrival : base.arrivals) {
      if (arrival.at > st->sim.now()) {
        co_await st->sim.delay(arrival.at - st->sim.now());
      }
      st->on_arrival(arrival.klass);
    }
  } else {
    // Poisson arrivals: exponential inter-arrival times, one next_double +
    // one next_below per arrival.
    const TimeNs window_end = st->sim.now() + base.window;
    while (st->sim.now() < window_end) {
      const double u = std::max(st->rng.next_double(), 1e-12);
      const auto gap = static_cast<DurationNs>(
          -std::log(u) * static_cast<double>(base.mean_interarrival));
      co_await st->sim.delay(std::max<DurationNs>(gap, 1));
      if (st->sim.now() >= window_end) break;

      const auto pick = st->rng.next_below(base.classes.size());
      st->on_arrival(static_cast<std::size_t>(pick));
    }
  }
  st->admission_closed = true;
  st->window_closed_at = st->sim.now();
  st->maybe_finish();
}


FleetResult FleetService::run() {
  config_.validate();
  const serve::ServiceConfig& base = config_.base;
  RunState st(config_);
  st.sim.spawn(generator_task(&st));
  st.sim.run();
  HQ_CHECK_MSG(st.sim.live_tasks() == 0, "fleet run finished with live tasks");
  HQ_CHECK_MSG(st.drained.fired(), "fleet run ended without draining");

  for (Shard& s : st.shards) s.finalize_checks(s.index);

  // --- drain: one pass over every job ----------------------------------------
  // Each job joins the accounting and class slice of the device that
  // terminally owns it, or the fleet-owned accounting (owner -1). A dropped
  // job also records whether it ever dispatched, for the span-free check.
  FleetResult result;
  result.jobs.assign(st.jobs.begin(), st.jobs.end());
  result.owners = st.owners;
  result.devices.resize(st.shards.size());
  std::vector<RunState::DeviceDrain> drains(st.shards.size());
  for (RunState::DeviceDrain& drain : drains) {
    drain.classes.resize(base.classes.size());
  }
  check::ServeAccounting fleet_owned;
  for (const serve::JobRecord& job : st.jobs) {
    const int owner = st.owners[static_cast<std::size_t>(job.job_id)];
    HQ_CHECK_MSG((owner < 0) == serve::is_fleet_owned(job.state),
                 "fleet job " << job.job_id << " owned by device " << owner
                              << " ended the run in state "
                              << serve::job_state_name(job.state));
    check::ServeAccounting& acc =
        owner < 0 ? fleet_owned
                  : result.devices[static_cast<std::size_t>(owner)].accounting;
    acc.add(job.state);
    if (serve::is_dropped(job.state)) {
      if (st.exec(job.job_id).dispatches == 0) {
        acc.undispatched_apps.push_back(job.job_id);
      } else {
        ++acc.shed_after_dispatch;
      }
    }
    if (owner < 0) continue;
    RunState::DeviceDrain& drain = drains[static_cast<std::size_t>(owner)];
    drain.classes[job.klass].add(job.state);
    if (serve::is_dispatched(job.state)) {
      drain.queue_wait.add(
          static_cast<double>(job.dispatched_at - job.arrived_at));
    }
    if (serve::is_completed(job.state)) {
      const auto t = static_cast<double>(job.completed_at - job.arrived_at);
      drain.turnaround.add(t);
      drain.turnaround_samples.push_back(t);
    }
  }

  // The fleet tally is the devices' tallies plus the fleet-owned one; it
  // must account every job counted at arrival.
  FleetReport& fleet = result.report = st.fleet_report;
  serve::JobTally& fleet_tally = fleet;
  fleet_tally = fleet_owned;
  for (const FleetDeviceResult& dev : result.devices) {
    fleet_tally += dev.accounting;
  }
  HQ_CHECK_MSG(
      fleet.arrived == st.jobs.size() && fleet.terminal() == st.jobs.size(),
      "fleet accounting lost jobs: " << fleet.arrived << " tallied, "
          << fleet.terminal() << " in terminal states ("
          << fleet_owned.terminal() << " fleet-owned) != " << st.jobs.size()
          << " arrived");

  // --- per-device results ----------------------------------------------------
  for (Shard& s : st.shards) {
    FleetDeviceResult& dev = result.devices[s.index];
    dev.trace = s.recorder;
    if (s.injector != nullptr) dev.fault_stats = s.injector->stats();
    dev.controller_transitions = s.controller.transitions();

    // Fleet-owned jobs were seen by no device, or by one whose cancelled
    // attempts may stand on any recorder: check them against every device.
    if (base.check_invariants) {
      check::ServeAccounting verify_acc = dev.accounting;
      verify_acc += fleet_owned;
      std::string violations;
      for (const std::string& v :
           check::verify_serve_accounting(verify_acc, s.recorder.get())) {
        violations += v + "\n";
      }
      HQ_CHECK_MSG(violations.empty(), "fleet device "
                                           << s.index
                                           << " serve invariant violations:\n"
                                           << violations);
    }

    st.fill_device_stats(s, dev.accounting, drains[s.index]);
    if (s.telemetry != nullptr) {
      st.export_device_counters(s, dev.accounting, dev.fault_stats);
      dev.telemetry = s.telemetry;
      dev.metrics = std::shared_ptr<obs::MetricsRegistry>(
          s.telemetry, &s.telemetry->registry());
    }
    fleet.devices.push_back(std::move(s.stats));
  }

  st.fill_fleet_totals(fleet);
  if (base.collect_metrics) {
    result.lifecycle = st.lifecycle;
    result.fleet_metrics = st.fleet_scope_metrics(fleet);
  }
  return result;
}

}  // namespace hq::fleet
