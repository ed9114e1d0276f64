#include "check/fuzzer.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "exec/parallel.hpp"
#include "fleet/telemetry.hpp"
#include "serve/report.hpp"
#include "trace/trace.hpp"

namespace hq::check {

namespace {

int pick(Rng& rng, std::initializer_list<int> choices) {
  const auto* begin = choices.begin();
  return begin[rng.next_below(choices.size())];
}

/// One or two distinct applications, as indices into rodinia::app_names().
std::vector<std::size_t> pick_apps(Rng& rng) {
  const std::size_t count = 1 + rng.next_below(2);
  std::vector<std::size_t> picked;
  while (picked.size() < count) {
    const std::size_t i = rng.next_below(rodinia::app_names().size());
    if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
      picked.push_back(i);
    }
  }
  return picked;
}

/// Sizes proven safe (and fast) by the per-application property tests; the
/// same matrix serves functional and timing cases.
rodinia::AppParams pick_params(const std::string& name, Rng& rng) {
  rodinia::AppParams p;
  if (name == "gaussian") {
    p.size = pick(rng, {16, 40, 96});
  } else if (name == "nn") {
    p.size = pick(rng, {128, 1001, 4096});
  } else if (name == "needle") {
    p.size = pick(rng, {32, 64, 160});
  } else if (name == "srad") {
    p.size = pick(rng, {16, 32, 64});
    p.iterations = pick(rng, {2, 3});
  } else if (name == "hotspot") {
    p.size = pick(rng, {16, 32, 48});
    p.iterations = pick(rng, {2, 5});
  } else if (name == "lud") {
    p.size = pick(rng, {16, 48, 96});
  } else if (name == "pathfinder") {
    p.size = pick(rng, {64, 513, 2000});   // cols
    p.iterations = pick(rng, {10, 40});    // rows
  } else {
    HQ_CHECK_MSG(false, "fuzzer has no parameter table for '" << name << "'");
  }
  p.seed = rng.next_u64();
  return p;
}

/// Appends one problem, streamed from `parts`.
template <class... Parts>
void add_problem(std::vector<std::string>& problems, const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  problems.push_back(os.str());
}

fleet::FleetResult run_once(const fleet::FleetConfig& config) {
  return fleet::FleetService(config).run();
}

serve::ServeResult run_once(const serve::ServiceConfig& config) {
  return serve::Service(config).run();
}

fw::HarnessResult run_once(const fw::HarnessConfig& config,
                           const std::vector<fw::WorkloadItem>& workload) {
  fw::Harness harness(config);
  return harness.run(workload);
}

/// Runs one configuration of a case. A run aborts (hq::Error) on an
/// invariant violation — device invariants, the serve accounting and the
/// fleet conservation checks inside the engines — so the error becomes the
/// problem "<label>: <what>" and every oracle failure carries its seed.
template <class... Args>
auto run_guarded(std::vector<std::string>& problems, const char* label,
                 const Args&... args)
    -> std::optional<decltype(run_once(args...))> {
  try {
    return run_once(args...);
  } catch (const hq::Error& e) {
    problems.push_back(std::string(label) + ": " + e.what());
    return std::nullopt;
  }
}

/// The fleet conservation oracle, run on every fleet, chaos and SDC run.
/// Every arrival lands in exactly one terminal state; the device reports
/// plus the fleet-owned sheds reproduce the fleet's arrivals; per-device
/// verifications, corrupted results and blocklist flags reproduce the fleet
/// counters; and corrupted results partition exactly into detected and
/// missed. Without chaos or corruption the last four hold at zero.
void check_fleet_conservation(const fleet::FleetReport& r, const char* label,
                              std::vector<std::string>& problems) {
  if (r.arrived != r.terminal()) {
    add_problem(problems, label, ": accounting leak (arrived ", r.arrived,
                " != terminal states ", r.terminal(), ")");
  }
  std::uint64_t device_arrived = 0;
  std::uint64_t device_verifications = 0;
  std::uint64_t device_injected = 0;
  std::uint64_t device_blocklisted = 0;
  for (const fleet::FleetDeviceStats& dev : r.devices) {
    device_arrived += dev.report.arrived;
    device_verifications += dev.verifications_run;
    device_injected += dev.sdc_injected;
    if (dev.blocklisted) ++device_blocklisted;
  }
  if (device_arrived + r.shed_no_device + r.shed_failover_exhausted !=
      r.arrived) {
    add_problem(problems, label, ": per-device arrivals ", device_arrived,
                " + shed_no_device ", r.shed_no_device,
                " + shed_failover_exhausted ", r.shed_failover_exhausted,
                " != fleet arrived ", r.arrived);
  }
  if (device_verifications != r.reexecutions) {
    add_problem(problems, label, ": per-device verifications ",
                device_verifications, " != fleet reexecutions ",
                r.reexecutions);
  }
  if (device_injected != r.sdc_injected) {
    add_problem(problems, label, ": per-device sdc_injected ", device_injected,
                " != fleet sdc_injected ", r.sdc_injected);
  }
  if (device_blocklisted != r.devices_blocklisted) {
    add_problem(problems, label, ": per-device blocklisted flags ",
                device_blocklisted, " != fleet devices_blocklisted ",
                r.devices_blocklisted);
  }
  if (r.sdc_injected != r.sdc_detected + r.sdc_missed) {
    add_problem(problems, label, ": sdc partition broken (", r.sdc_injected,
                " injected != ", r.sdc_detected, " detected + ", r.sdc_missed,
                " missed)");
  }
}

std::string report_text(const serve::ServeReport& r) {
  return serve::report_json(r);
}
std::string report_text(const fleet::FleetReport& r) {
  return fleet::fleet_report_json(r);
}

/// The byte-identity oracle: reports `a` and `b` must render the same;
/// otherwise `what` is a problem, with both report digests.
template <class Report>
void expect_same_report(std::vector<std::string>& problems,
                        const std::string& what, const Report& a,
                        const Report& b) {
  const std::string text_a = report_text(a);
  const std::string text_b = report_text(b);
  if (text_a != text_b) {
    add_problem(problems, what, " (digests ",
                Fnv1a64().mix_string(text_a).value(), " vs ",
                Fnv1a64().mix_string(text_b).value(), ")");
  }
}

/// The determinism oracle of every serving check: runs `config` twice as
/// "<check>-run1/2" and requires byte-identical reports. Returns the first
/// run, or nullopt when either run aborted.
template <class Config>
auto run_twice(std::vector<std::string>& problems, const std::string& check,
               const Config& config)
    -> decltype(run_guarded(problems, "", config)) {
  const auto run1 = run_guarded(problems, (check + "-run1").c_str(), config);
  const auto run2 = run_guarded(problems, (check + "-run2").c_str(), config);
  if (!run1 || !run2) return std::nullopt;
  expect_same_report(
      problems, check + " determinism: reports differ across identical runs",
      run1->report, run2->report);
  return run1;
}

/// The inert-layer identity of the chaos and SDC checks: `layered` with
/// every plan disabled, hedging off and the Trust policy (the layer's
/// knobs present but inert) reproduces the fleet case byte for byte,
/// apart from the config echo.
void check_inert_layer(std::vector<std::string>& problems,
                       const std::string& check,
                       const fleet::FleetConfig& layered) {
  fleet::FleetConfig inert = layered;
  inert.device_fault_plans.assign(layered.num_devices(), fault::FaultPlan{});
  inert.hedging = false;
  inert.integrity = fleet::IntegrityPolicy::Trust;
  const auto inert_run =
      run_guarded(problems, (check + "-inert").c_str(), inert);
  const auto baseline = run_guarded(problems, (check + "-baseline").c_str(),
                                    fleet_case_of(layered));
  if (!inert_run || !baseline) return;
  expect_same_report(problems,
                     check + " inert-layer perturbation: disabled plans, "
                             "hedging off and trust changed the report",
                     fleet::with_config_echo_of(inert_run->report,
                                                baseline->report),
                     baseline->report);
}

/// The per-device plan draw of the chaos and SDC layers. Each device takes
/// one fixed draw sequence (verdict, kind, time, plan seed), consumed
/// whether or not it gets a plan, so every decision is a pure function of
/// the seed. With probability `rate` the device gets a zero plan with that
/// seed, shaped by `shape(plan, kind in [0, 3), time)`; the time lies in
/// the middle three fifths of the window.
template <class Shape>
std::vector<fault::FaultPlan> draw_device_plans(
    Rng& rng, const fleet::FleetConfig& config, double rate, Shape shape) {
  const DurationNs window = config.base.window;
  std::vector<fault::FaultPlan> plans(config.num_devices());
  for (fault::FaultPlan& plan : plans) {
    const double verdict = rng.next_double();
    const std::size_t kind = rng.next_below(3);
    const TimeNs at = static_cast<TimeNs>(
        window / 5 + rng.next_below(static_cast<std::uint64_t>(window) * 3 / 5));
    const std::uint64_t plan_seed = rng.next_u64();
    if (verdict >= rate) continue;
    plan = fault::FaultPlan::zero();
    plan.seed = plan_seed;
    shape(plan, kind, at);
  }
  return plans;
}

/// The class factories of a parsed config, rebuilt from each class's type
/// and params record ("size=64 seed=7" reads as AppParams text).
void rebuild_factories(serve::ServiceConfig& config) {
  for (serve::ClassSpec& klass : config.classes) {
    std::string record = klass.item.params;
    std::replace(record.begin(), record.end(), ' ', ',');
    rodinia::AppParams params;
    std::string error;
    const bool parsed = codec::parse(record, &params, &error);
    HQ_CHECK_MSG(parsed, "fuzz case class '" << klass.item.type_name
                                             << "': " << error);
    klass.item = rodinia::make_app(klass.item.type_name, params);
  }
}

template <class Config>
Config parse_config(std::string_view text) {
  Config config;
  std::string error;
  const bool parsed = codec::parse(text, &config, &error);
  HQ_CHECK_MSG(parsed, "fuzz case: " << error);
  return config;
}

}  // namespace

FuzzCase generate_case(std::uint64_t case_seed) {
  Rng rng(case_seed);
  FuzzCase c;
  c.seed = case_seed;

  const auto& names = rodinia::app_names();
  for (const std::size_t i : pick_apps(rng)) {
    c.type_names.push_back(names[i]);
    c.params.push_back(pick_params(names[i], rng));
  }

  // 2..6 instances total, at least one per type.
  const std::size_t total = 2 + rng.next_below(5);
  c.counts.assign(c.type_names.size(), 1);
  for (std::size_t extra = total > c.counts.size() ? total - c.counts.size() : 0;
       extra > 0; --extra) {
    ++c.counts[rng.next_below(c.counts.size())];
  }

  c.order = fw::kAllOrders[rng.next_below(std::size(fw::kAllOrders))];
  c.slots = fw::make_schedule(c.order, c.counts, &rng);

  fw::HarnessConfig cfg;
  cfg.num_streams = pick(rng, {1, 2, 3, 4, 8, 32});
  cfg.memory_sync = rng.next_below(2) == 0;
  cfg.blocking_transfers = rng.next_below(4) != 0;
  const Bytes chunks[] = {0, 0, 64 * kKiB, kMiB};
  cfg.transfer_chunk_bytes = chunks[rng.next_below(std::size(chunks))];
  const DurationNs staggers[] = {0, 10 * kMicrosecond, 100 * kMicrosecond};
  cfg.launch_stagger = staggers[rng.next_below(std::size(staggers))];
  cfg.functional = rng.next_below(100) < 35;
  cfg.monitor_power = rng.next_below(4) == 0;
  cfg.check_invariants = true;
  c.config = cfg;
  return c;
}

std::string FuzzCase::summary() const {
  std::ostringstream os;
  os << "seed=" << seed << " apps=";
  for (std::size_t t = 0; t < type_names.size(); ++t) {
    if (t > 0) os << "+";
    os << type_names[t] << "x" << counts[t];
  }
  os << " order=" << fw::order_name(order) << " ns=" << config.num_streams
     << " memsync=" << config.memory_sync
     << " blocking=" << config.blocking_transfers
     << " chunk=" << config.transfer_chunk_bytes
     << " stagger=" << config.launch_stagger
     << " functional=" << config.functional
     << " power=" << config.monitor_power;
  return os.str();
}

serve::ServiceConfig draw_serve_case(std::uint64_t case_seed) {
  Rng rng(case_seed);
  serve::ServiceConfig cfg;

  const auto& names = rodinia::app_names();
  for (const std::size_t i : pick_apps(rng)) {
    const rodinia::AppParams params = pick_params(names[i], rng);
    cfg.classes.push_back({rodinia::make_app(names[i], params),
                           static_cast<int>(rng.next_below(3))});
  }

  cfg.window = static_cast<DurationNs>(pick(rng, {4, 6, 8})) * kMillisecond;
  cfg.mean_interarrival =
      static_cast<DurationNs>(pick(rng, {150, 300, 600})) * kMicrosecond;
  cfg.num_streams = pick(rng, {2, 4, 8});
  cfg.max_inflight = static_cast<std::size_t>(pick(rng, {2, 3, 4}));
  cfg.queue_cap = cfg.max_inflight + static_cast<std::size_t>(pick(rng, {2, 4, 8}));
  const serve::ShedPolicy policies[] = {serve::ShedPolicy::DropTail,
                                        serve::ShedPolicy::DeadlineAware,
                                        serve::ShedPolicy::Priority};
  cfg.shed_policy = policies[rng.next_below(std::size(policies))];
  const DurationNs deadlines[] = {0, kMillisecond, 3 * kMillisecond};
  cfg.deadline = deadlines[rng.next_below(std::size(deadlines))];
  cfg.seed = rng.next_u64();
  cfg.collect_metrics = false;  // oracle runs only consume the report
  return cfg;
}

fleet::FleetConfig draw_fleet_case(std::uint64_t case_seed) {
  fleet::FleetConfig cfg;
  cfg.base = draw_serve_case(case_seed);
  // Fleet knobs draw from their own stream so they stay reproducible and
  // never perturb which serve config a case seed maps to.
  Rng rng(case_seed ^ 0xc2b2ae3d27d4eb4fULL);

  const std::size_t n = 1 + rng.next_below(3);
  const bool heterogeneous = n > 1 && rng.next_below(3) == 0;
  cfg.devices.assign(n, cfg.base.device);
  if (heterogeneous) {
    for (std::size_t d = 1; d < n; d += 2) {
      cfg.devices[d] = gpu::DeviceSpec::single_copy_engine();
    }
  }
  const auto& policies = fleet::all_placement_policies();
  cfg.placement = policies[rng.next_below(policies.size())];
  cfg.copy_penalty = rng.next_below(2) == 0 ? 2.0 : 0.5;
  cfg.work_stealing = rng.next_below(2) == 0;
  cfg.device_breaker_enabled = rng.next_below(3) == 0;
  cfg.device_breaker.failure_threshold = 2;
  cfg.device_breaker.cooldown = 2 * kMillisecond;
  return cfg;
}

fleet::FleetConfig draw_chaos_case(std::uint64_t case_seed,
                                   double chaos_rate) {
  fleet::FleetConfig cfg = draw_fleet_case(case_seed);
  // The chaos layer draws from its own stream, so the case seed still maps
  // to exactly the fleet case underneath.
  Rng rng(case_seed ^ 0x94d049bb133111ebULL);
  const DurationNs window = cfg.base.window;
  cfg.device_fault_plans = draw_device_plans(
      rng, cfg, chaos_rate,
      [window](fault::FaultPlan& plan, std::size_t kind, TimeNs at) {
        if (kind == 0) {
          plan.crash_at = at;
        } else if (kind == 1) {
          plan.flap_period = window / 4;
          plan.flap_down = window / 16;
          plan.flap_jitter = 0.5;
        } else {
          plan.degrade_at = at;
          plan.degrade_copy_factor = 3.0;
        }
      });
  cfg.failover_budget = static_cast<int>(rng.next_below(4));
  cfg.hedging = rng.next_below(2) == 0;
  cfg.hedge_threshold = rng.next_below(2) == 0 ? 1.5 : 2.5;
  cfg.hedge_min_samples = 2 + rng.next_below(3);
  return cfg;
}

fleet::FleetConfig draw_sdc_case(std::uint64_t case_seed, double sdc_rate) {
  fleet::FleetConfig cfg = draw_fleet_case(case_seed);
  // The SDC layer draws from its own stream, so the case seed still maps to
  // exactly the fleet case underneath.
  Rng rng(case_seed ^ 0xd6e8feb86659fd93ULL);
  cfg.device_fault_plans = draw_device_plans(
      rng, cfg, sdc_rate,
      [](fault::FaultPlan& plan, std::size_t kind, TimeNs at) {
        if (kind == 0) {
          plan.sdc_copy_rate = 0.4;
        } else if (kind == 1) {
          plan.sdc_kernel_rate = 0.6;
          plan.sdc_at = at;
        } else {
          plan.sdc_stuck_at = at;
        }
      });
  cfg.integrity = rng.next_below(2) == 0 ? fleet::IntegrityPolicy::SpotCheck
                                         : fleet::IntegrityPolicy::Dmr;
  cfg.spotcheck_rate = rng.next_below(2) == 0 ? 0.5 : 1.0;
  cfg.sdc_blocklist_threshold = rng.next_below(2) == 0 ? 0.6 : 0.8;
  cfg.failover_budget = 1 + static_cast<int>(rng.next_below(3));
  // The lifecycle tracer backs the blocklist-placement oracle; attaching it
  // is zero-perturbation (the observability oracle pins that).
  cfg.base.collect_metrics = true;
  return cfg;
}

fleet::FleetConfig fleet_case_of(fleet::FleetConfig layered) {
  const fleet::FleetConfig defaults;
  layered.device_fault_plans = defaults.device_fault_plans;
  layered.failover_budget = defaults.failover_budget;
  layered.hedging = defaults.hedging;
  layered.hedge_threshold = defaults.hedge_threshold;
  layered.hedge_min_samples = defaults.hedge_min_samples;
  layered.integrity = defaults.integrity;
  layered.spotcheck_rate = defaults.spotcheck_rate;
  layered.sdc_blocklist_threshold = defaults.sdc_blocklist_threshold;
  layered.base.collect_metrics = false;
  return layered;
}

serve::ServiceConfig parse_serve_case(std::string_view text) {
  serve::ServiceConfig config = parse_config<serve::ServiceConfig>(text);
  rebuild_factories(config);
  return config;
}

fleet::FleetConfig parse_fleet_case(std::string_view text) {
  fleet::FleetConfig config = parse_config<fleet::FleetConfig>(text);
  rebuild_factories(config.base);
  return config;
}

std::vector<std::string> Fuzzer::check_fleet(std::uint64_t case_seed,
                                             const fleet::FleetConfig& config,
                                             std::string* flag) {
  std::vector<std::string> problems;

  const auto fleet1 = run_twice(problems, "fleet", config);
  if (!fleet1) return problems;
  check_fleet_conservation(fleet1->report, "fleet-base", problems);

  // --- observability zero-perturbation ---------------------------------------
  // Attaching the fleet observability plane (per-device telemetry, the job
  // lifecycle tracer, fleet-scope metrics) must leave the report bytes
  // identical, and every export must itself be deterministic across runs.
  fleet::FleetConfig observed_cfg = config;
  observed_cfg.base.collect_metrics = true;
  const auto observed1 = run_guarded(problems, "fleet-observed1", observed_cfg);
  const auto observed2 = run_guarded(problems, "fleet-observed2", observed_cfg);
  if (observed1 && observed2) {
    expect_same_report(problems,
                       "fleet observability perturbation: report changed "
                       "with observers attached",
                       observed1->report, fleet1->report);
    try {
      if (fleet::fleet_metrics_json(*observed1) !=
              fleet::fleet_metrics_json(*observed2) ||
          fleet::fleet_prometheus_text(*observed1) !=
              fleet::fleet_prometheus_text(*observed2) ||
          fleet::fleet_chrome_trace_json(*observed1) !=
              fleet::fleet_chrome_trace_json(*observed2) ||
          fleet::fleet_snapshots_jsonl(*observed1, 500 * kMicrosecond) !=
              fleet::fleet_snapshots_jsonl(*observed2, 500 * kMicrosecond)) {
        add_problem(problems,
                    "fleet observability determinism: exports differ across "
                    "identical observed runs");
      }
    } catch (const hq::Error& e) {
      add_problem(problems, "fleet observability export failed: ", e.what());
    }
  }

  // --- placement permutation safety under injected faults --------------------
  // Every policy must preserve conservation even with a transient fault
  // plan and the device health breaker quarantining/rebalancing devices.
  fleet::FleetConfig faulted = config;
  faulted.base.fault_plan = case_fault_plan(case_seed, 0.5);
  faulted.device_breaker_enabled = true;
  faulted.device_breaker.failure_threshold = 2;
  faulted.device_breaker.cooldown = 2 * kMillisecond;
  for (const fleet::PlacementPolicy policy : fleet::all_placement_policies()) {
    faulted.placement = policy;
    std::ostringstream label;
    label << "fleet-faulted-" << fleet::placement_policy_name(policy);
    if (const auto run = run_guarded(problems, label.str().c_str(), faulted)) {
      check_fleet_conservation(run->report, label.str().c_str(), problems);
    }
  }

  // --- fleet-size monotonicity (flagged, not gating) --------------------------
  // Queueing noise can make a bigger fleet complete marginally less at a
  // fixed load, so a violation flags the case for inspection instead of
  // failing it.
  if (config.num_devices() > 1 && flag != nullptr) {
    fleet::FleetConfig single;
    single.base = config.base;
    const auto single_run = run_guarded(problems, "fleet-single", single);
    if (single_run &&
        fleet1->report.completed < single_run->report.completed) {
      std::ostringstream os;
      os << " [flag: n=" << config.num_devices() << " fleet completed "
         << fleet1->report.completed << " < single-device "
         << single_run->report.completed << "]";
      *flag = os.str();
    }
  }

  return problems;
}

std::vector<std::string> Fuzzer::check_chaos(std::uint64_t case_seed,
                                             const fleet::FleetConfig& config) {
  std::vector<std::string> problems;
  const std::size_t n = config.num_devices();
  const DurationNs window = config.base.window;

  const auto chaos1 = run_twice(problems, "chaos", config);
  if (!chaos1) return problems;
  check_fleet_conservation(chaos1->report, "chaos-base", problems);
  check_inert_layer(problems, "chaos", config);

  // --- failover shed-back ---------------------------------------------------
  // Even devices flap and odd devices crash inside a flap-up window, on a
  // queue one slot deep: jobs that ran on a flapping device fail over to a
  // crashing one, then fail back onto the device they ran on and are shed by
  // its full queue. The run must pass its in-run serve accounting (which
  // exempts such victims: their cancelled attempts own spans) and conserve,
  // while every shed job that never dispatched stays span-free on every
  // device.
  fleet::FleetConfig flapping = config;
  if (flapping.devices.size() < 2) {
    flapping.devices.resize(2, flapping.devices.front());
  }
  flapping.device_fault_plans.assign(flapping.devices.size(),
                                     fault::FaultPlan{});
  flapping.base.queue_cap = flapping.base.max_inflight + 1;
  for (std::size_t d = 0; d < flapping.devices.size(); ++d) {
    fault::FaultPlan plan = fault::FaultPlan::zero();
    plan.seed = case_seed + d;
    if (d % 2 == 0) {
      plan.flap_period = window / 4;
      plan.flap_down = window / 16;
      plan.flap_jitter = 0.5;
    } else {
      plan.crash_at = window / 2 + window / 8;
    }
    flapping.device_fault_plans[d] = plan;
  }
  flapping.failover_budget = std::max(config.failover_budget, 2);
  flapping.base.collect_metrics = true;
  if (const auto shed_back =
          run_guarded(problems, "chaos-shed-back", flapping)) {
    check_fleet_conservation(shed_back->report, "chaos-shed-back", problems);
    std::set<std::int32_t> span_owners;
    for (const fleet::FleetDeviceResult& dev : shed_back->devices) {
      for (const trace::Span& span : *dev.trace) {
        span_owners.insert(span.app_id);
      }
    }
    for (const serve::JobRecord& job : shed_back->jobs) {
      if (!serve::is_dropped(job.state) || span_owners.count(job.job_id) == 0) {
        continue;
      }
      bool ran = false;
      for (const serve::JobEvent& e : shed_back->lifecycle->events(job.job_id)) {
        ran = ran || e.kind == serve::JobEventKind::Dispatched ||
              e.kind == serve::JobEventKind::Hedged ||
              e.kind == serve::JobEventKind::VerifyDispatched;
      }
      if (!ran) {
        add_problem(problems, "chaos-shed-back: job ", job.job_id, " ended ",
                    serve::job_state_name(job.state),
                    " without ever dispatching but owns trace spans");
        break;
      }
    }
  }

  // --- all devices dead => clean drain ---------------------------------------
  // Every device crashes at the same instant: the run must terminate with
  // no invariant violation, conserve every arrival, and complete nothing
  // after the crash.
  fleet::FleetConfig doomed = config;
  fault::FaultPlan crash_all = fault::FaultPlan::zero();
  crash_all.crash_at = window / 3;
  doomed.device_fault_plans.assign(n, crash_all);
  if (const auto dead = run_guarded(problems, "chaos-all-dead", doomed)) {
    check_fleet_conservation(dead->report, "chaos-all-dead", problems);
    for (const serve::JobRecord& job : dead->jobs) {
      if (serve::is_completed(job.state) &&
          job.completed_at > crash_all.crash_at) {
        add_problem(problems, "chaos-all-dead: job ", job.job_id,
                    " completed at ", job.completed_at,
                    " after every device crashed at ", crash_all.crash_at);
        break;
      }
    }
  }

  return problems;
}

std::vector<std::string> Fuzzer::check_sdc(std::uint64_t /*case_seed*/,
                                           const fleet::FleetConfig& config) {
  std::vector<std::string> problems;
  const auto sdc1 = run_twice(problems, "sdc", config);
  if (!sdc1) return problems;
  check_fleet_conservation(sdc1->report, "sdc-base", problems);
  check_inert_layer(problems, "sdc", config);

  // --- blocklisted devices receive nothing after their blocklist time --------
  if (sdc1->lifecycle != nullptr) {
    for (std::size_t d = 0; d < sdc1->report.devices.size(); ++d) {
      const fleet::FleetDeviceStats& dev = sdc1->report.devices[d];
      if (!dev.blocklisted) continue;
      for (std::size_t job = 0; job < sdc1->lifecycle->num_jobs() &&
                                problems.size() < 8;
           ++job) {
        for (const serve::JobEvent& e :
             sdc1->lifecycle->events(static_cast<int>(job))) {
          const bool lands_work =
              e.kind == serve::JobEventKind::Placed ||
              e.kind == serve::JobEventKind::Queued ||
              e.kind == serve::JobEventKind::Requeued ||
              e.kind == serve::JobEventKind::Stolen ||
              e.kind == serve::JobEventKind::FailedOver ||
              e.kind == serve::JobEventKind::Dispatched ||
              e.kind == serve::JobEventKind::Hedged ||
              e.kind == serve::JobEventKind::VerifyDispatched;
          if (lands_work && e.device == static_cast<int>(d) &&
              e.at > dev.blocklisted_at) {
            add_problem(problems, "sdc blocklist leak: job ", job, " event ",
                        serve::job_event_kind_name(e.kind),
                        " landed on device ", d, " at ", e.at,
                        " after its blocklist at ", dev.blocklisted_at);
          }
        }
      }
    }
  }

  return problems;
}

std::vector<std::string> Fuzzer::check_serve(
    std::uint64_t /*case_seed*/, const serve::ServiceConfig& config) {
  std::vector<std::string> problems;

  const auto base1 = run_twice(problems, "serve", config);
  if (!base1) return problems;

  // --- accounting: conservation + shed jobs consume no device time ----------
  const serve::ServeReport& r = base1->report;
  if (r.arrived != r.terminal()) {
    add_problem(problems, "serve accounting: arrived ", r.arrived,
                " != completed_ok ", r.completed_ok, " + completed_late ",
                r.completed_late, " + shed ", r.shed_queue_full, "+",
                r.shed_breaker, " + timed-out ", r.timed_out_queued,
                " + quarantined ", r.quarantined);
  }
  for (const serve::JobRecord& job : base1->jobs) {
    if (serve::is_dropped(job.state) &&
        (job.dispatched_at != 0 || job.completed_at != 0)) {
      add_problem(problems, "serve accounting: job ", job.job_id, " is ",
                  serve::job_state_name(job.state),
                  " but carries device timestamps (dispatched ",
                  job.dispatched_at, ", completed ", job.completed_at, ")");
    }
  }

  // --- queue-cap monotonicity ------------------------------------------------
  serve::ServiceConfig uncapped = config;
  uncapped.queue_cap = 0;
  if (const auto unbounded =
          run_guarded(problems, "serve-uncapped", uncapped)) {
    if (unbounded->report.arrived != r.arrived) {
      add_problem(problems,
                  "serve metamorphic: arrivals depend on the queue cap (",
                  unbounded->report.arrived, " uncapped vs ", r.arrived, ")");
    }
    if (unbounded->report.completed < r.completed) {
      add_problem(problems,
                  "serve metamorphic: removing the queue cap decreased "
                  "completed jobs (",
                  unbounded->report.completed, " < ", r.completed, ")");
    }
  }

  // --- deadline monotonicity (drop-tail, no expiry: pure accounting) --------
  serve::ServiceConfig loose = config;
  loose.shed_policy = serve::ShedPolicy::DropTail;
  loose.expire_queued = false;
  loose.deadline = 4 * kMillisecond;
  serve::ServiceConfig tight = loose;
  tight.deadline = kMillisecond;
  const auto loose_run = run_guarded(problems, "serve-deadline-loose", loose);
  const auto tight_run = run_guarded(problems, "serve-deadline-tight", tight);
  if (loose_run && tight_run) {
    if (loose_run->report.trace_digest != tight_run->report.trace_digest) {
      add_problem(problems,
                  "serve metamorphic: accounting-only deadline perturbed the "
                  "schedule (digests ",
                  loose_run->report.trace_digest, " vs ",
                  tight_run->report.trace_digest, ")");
    }
    if (tight_run->report.goodput_per_sec >
        loose_run->report.goodput_per_sec) {
      add_problem(
          problems,
          "serve metamorphic: tightening the deadline increased goodput (",
          tight_run->report.goodput_per_sec, "/s > ",
          loose_run->report.goodput_per_sec, "/s)");
    }
  }

  // --- zero perturbation: features off, zero-rate plan == no plan ---------
  // With every overload feature off, attaching a zero-rate fault plan and
  // the metrics registry must leave the schedule untouched.
  serve::ServiceConfig bare = config;
  bare.queue_cap = 0;
  bare.max_inflight = 0;
  bare.shed_policy = serve::ShedPolicy::DropTail;
  bare.deadline = 0;
  bare.expire_queued = false;
  bare.controller = {};
  bare.breaker_enabled = false;
  bare.fault_plan = fault::FaultPlan::zero();
  bare.collect_metrics = true;
  serve::ServiceConfig plain = bare;
  plain.fault_plan = {};
  plain.collect_metrics = false;
  const auto bare_run = run_guarded(problems, "serve-bare", bare);
  const auto plain_run = run_guarded(problems, "serve-plain", plain);
  if (bare_run && plain_run &&
      (bare_run->report.trace_digest != plain_run->report.trace_digest ||
       bare_run->report.arrived != plain_run->report.arrived)) {
    add_problem(problems,
                "serve zero-perturbation: bare service with a zero-rate plan "
                "diverges from the plan-free run (digests ",
                bare_run->report.trace_digest, " vs ",
                plain_run->report.trace_digest, ", arrived ",
                bare_run->report.arrived, " vs ", plain_run->report.arrived,
                ")");
  }

  return problems;
}

fault::FaultPlan Fuzzer::case_fault_plan(std::uint64_t case_seed,
                                         double fault_rate) {
  HQ_CHECK_MSG(fault_rate >= 0.0 && fault_rate <= 1.0,
               "fault rate must lie in [0, 1]");
  fault::FaultPlan plan;
  plan.enabled = true;
  // Decorrelate the fault stream from the workload generator without losing
  // reproducibility: the plan is still a pure function of the case seed.
  plan.seed = case_seed ^ 0x9e3779b97f4a7c15ULL;
  plan.copy_stall_rate = 0.25 * fault_rate;
  plan.copy_stall_ns = 50 * kMicrosecond;
  plan.copy_slowdown_rate = 0.25 * fault_rate;
  plan.copy_slowdown_factor = 1.5;
  plan.launch_failure_rate = 0.5 * fault_rate;
  plan.throttle_period = 2 * kMillisecond;
  plan.throttle_duration = 200 * kMicrosecond;
  plan.throttle_factor = 1.25;
  return plan;
}

std::vector<std::string> Fuzzer::run_case(std::uint64_t case_seed,
                                          std::string* summary_out) {
  return run_case(case_seed, 0.0, summary_out);
}

std::vector<std::string> Fuzzer::run_case(std::uint64_t case_seed,
                                          double fault_rate,
                                          std::string* summary_out) {
  const FuzzCase c = generate_case(case_seed);
  if (summary_out != nullptr) *summary_out = c.summary();
  std::vector<std::string> problems;

  const auto workload =
      rodinia::build_workload(c.slots, c.type_names, c.params);

  const auto hyperq1 = run_guarded(problems, "hyperq-run1", c.config, workload);
  const auto hyperq2 = run_guarded(problems, "hyperq-run2", c.config, workload);
  fw::HarnessConfig serial_cfg = c.config;
  serial_cfg.num_streams = 1;
  const auto serial = run_guarded(problems, "serial", serial_cfg, workload);
  fw::HarnessConfig fermi_cfg = c.config;
  fermi_cfg.device = gpu::DeviceSpec::fermi_single_queue();
  const auto fermi = run_guarded(problems, "fermi", fermi_cfg, workload);
  if (!hyperq1 || !hyperq2 || !serial || !fermi) return problems;

  // --- determinism: identical seed => identical run --------------------------
  const std::uint64_t digest1 = trace::digest(*hyperq1->trace);
  const std::uint64_t digest2 = trace::digest(*hyperq2->trace);
  if (digest1 != digest2) {
    add_problem(problems,
                "determinism: trace digests differ across identical runs (",
                digest1, " vs ", digest2, ")");
  }
  if (hyperq1->makespan != hyperq2->makespan) {
    add_problem(problems,
                "determinism: makespan differs across identical runs (",
                hyperq1->makespan, " vs ", hyperq2->makespan, ")");
  }
  if (hyperq1->energy_exact != hyperq2->energy_exact) {
    add_problem(problems, "determinism: energy differs across identical runs (",
                hyperq1->energy_exact, " vs ", hyperq2->energy_exact, ")");
  }

  // --- serialization: NS = 1 is never faster ---------------------------------
  if (serial->makespan < hyperq1->makespan) {
    add_problem(problems, "metamorphic: serialized makespan ", serial->makespan,
                " < concurrent makespan ", hyperq1->makespan);
  }

  // --- Hyper-Q: the Fermi single-queue ablation is never materially faster ---
  // Strict dominance does not hold pointwise: head-of-line blocking changes
  // block placement order, and the contention model stretches a block by the
  // occupancy it sees at placement, so Fermi can finish a hair earlier
  // (measured < 0.8% over thousands of cases). A 2% guard band separates
  // that modelling noise from real scheduling regressions.
  if (static_cast<double>(fermi->makespan) <
      static_cast<double>(hyperq1->makespan) * 0.98) {
    add_problem(problems, "metamorphic: Fermi makespan ", fermi->makespan,
                " materially below Hyper-Q makespan ", hyperq1->makespan);
  }

  // --- work conservation: every mode does the same device work ---------------
  const auto check_stats = [&](const gpu::Device::Stats& got,
                               const char* label) {
    const gpu::Device::Stats& want = hyperq1->device_stats;
    if (got.kernels_completed != want.kernels_completed ||
        got.copies_htod != want.copies_htod ||
        got.copies_dtoh != want.copies_dtoh ||
        got.bytes_htod != want.bytes_htod ||
        got.bytes_dtoh != want.bytes_dtoh) {
      add_problem(problems, "work conservation: ", label,
                  " device stats differ from the Hyper-Q run (kernels ",
                  got.kernels_completed, "/", want.kernels_completed,
                  ", copies ", got.copies_htod, "+", got.copies_dtoh, "/",
                  want.copies_htod, "+", want.copies_dtoh, ")");
    }
  };
  check_stats(serial->device_stats, "serialized");
  check_stats(fermi->device_stats, "Fermi");

  // --- Eq. 1–2 bounds on effective transfer latency --------------------------
  for (const fw::AppMetrics& m : hyperq1->apps) {
    if (m.htod_effective_latency > 0 &&
        m.htod_own_time > m.htod_effective_latency) {
      add_problem(problems, "latency bound: app ", m.app_id, " (", m.type,
                  ") effective HtoD latency ", m.htod_effective_latency,
                  " below own service time ", m.htod_own_time);
    }
    if (m.htod_effective_latency > hyperq1->makespan ||
        m.dtoh_effective_latency > hyperq1->makespan) {
      add_problem(problems, "latency bound: app ", m.app_id, " (", m.type,
                  ") effective latency exceeds makespan ", hyperq1->makespan);
    }
  }

  // --- energy plausibility ----------------------------------------------------
  {
    const gpu::DeviceSpec& spec = c.config.device;
    const double seconds = to_seconds(hyperq1->makespan);
    const double floor = spec.idle_power * seconds;
    const double ceiling =
        (spec.idle_power + spec.active_base_power + spec.max_dynamic_power +
         spec.copy_engine_power * spec.num_copy_engines) *
        seconds;
    if (hyperq1->energy_exact < floor * (1.0 - 1e-9) ||
        hyperq1->energy_exact > ceiling * (1.0 + 1e-9)) {
      add_problem(problems, "energy: phase energy ", hyperq1->energy_exact,
                  " J outside plausible range [", floor, ", ", ceiling, "]");
    }
  }

  // --- functional equivalence across scheduling modes -------------------------
  if (c.config.functional) {
    const auto check_verified = [&](const fw::HarnessResult& r,
                                    const char* label) {
      if (!r.all_verified) {
        add_problem(problems, "functional: ", label,
                    " run failed verification");
      }
    };
    check_verified(*hyperq1, "Hyper-Q");
    check_verified(*serial, "serialized");
    check_verified(*fermi, "Fermi");

    for (std::size_t i = 0; i < hyperq1->apps.size(); ++i) {
      const std::uint64_t d_hq1 = hyperq1->apps[i].output_digest;
      const std::uint64_t d_hq2 = hyperq2->apps[i].output_digest;
      const std::uint64_t d_serial = serial->apps[i].output_digest;
      const std::uint64_t d_fermi = fermi->apps[i].output_digest;
      if (d_hq1 != d_hq2 || d_hq1 != d_serial || d_hq1 != d_fermi) {
        add_problem(problems, "functional: app ", i, " (",
                    hyperq1->apps[i].type,
                    ") output digests diverge across modes (hq ", d_hq1, "/",
                    d_hq2, ", serial ", d_serial, ", fermi ", d_fermi, ")");
      }
    }
  }

  // --- fault-mode oracles ------------------------------------------------------
  if (fault_rate > 0.0) {
    // Attaching an all-zero-rate plan must perturb nothing.
    fw::HarnessConfig zero_cfg = c.config;
    zero_cfg.fault_plan = fault::FaultPlan::zero();
    const auto zeroed = run_guarded(problems, "fault-zero", zero_cfg, workload);
    if (zeroed) {
      if (trace::digest(*zeroed->trace) != digest1) {
        add_problem(problems,
                    "fault: zero-rate plan perturbed the trace digest (",
                    trace::digest(*zeroed->trace), " vs ", digest1, ")");
      }
      if (zeroed->degraded.stats.total() != 0 ||
          !zeroed->degraded.quarantined.empty()) {
        add_problem(problems, "fault: zero-rate plan reported ",
                    zeroed->degraded.stats.total(), " faults / ",
                    zeroed->degraded.quarantined.size(), " quarantined apps");
      }
    }

    fw::HarnessConfig fault_cfg = c.config;
    fault_cfg.fault_plan = case_fault_plan(case_seed, fault_rate);
    const auto faulted1 =
        run_guarded(problems, "fault-run1", fault_cfg, workload);
    const auto faulted2 =
        run_guarded(problems, "fault-run2", fault_cfg, workload);
    if (faulted1 && faulted2) {
      // Determinism: the same plan + seed reproduces the faulted run.
      if (trace::digest(*faulted1->trace) != trace::digest(*faulted2->trace) ||
          faulted1->makespan != faulted2->makespan ||
          faulted1->degraded.stats.total() !=
              faulted2->degraded.stats.total()) {
        add_problem(problems,
                    "fault: faulted run is not deterministic (digests ",
                    trace::digest(*faulted1->trace), "/",
                    trace::digest(*faulted2->trace), ", makespans ",
                    faulted1->makespan, "/", faulted2->makespan, ", faults ",
                    faulted1->degraded.stats.total(), "/",
                    faulted2->degraded.stats.total(), ")");
      }
      // Injected faults only ever add service time or submission delay, so
      // the faulted run is never materially faster (same 2% guard band as
      // the Fermi oracle for contention-model noise).
      if (static_cast<double>(faulted1->makespan) <
          static_cast<double>(hyperq1->makespan) * 0.98) {
        add_problem(problems, "fault: faulted makespan ", faulted1->makespan,
                    " materially below fault-free makespan ",
                    hyperq1->makespan);
      }
      // Transient faults never drop device work, and the plan stays below
      // the retry budget, so nothing may be quarantined.
      check_stats(faulted1->device_stats, "faulted");
      if (!faulted1->degraded.quarantined.empty()) {
        add_problem(problems, "fault: transient-only plan quarantined ",
                    faulted1->degraded.quarantined.size(), " app(s)");
      }
      // At full intensity every copy draws a stall at rate 0.25 and every
      // launch at rate 0.5 — a run with zero observed faults means the
      // injector is wired to nothing.
      if (fault_rate >= 1.0 && faulted1->degraded.stats.total() == 0) {
        add_problem(problems, "fault: rate-1 plan injected zero faults");
      }
      // Retried launches still reach the device: functional outputs are
      // byte-identical to the fault-free run.
      if (c.config.functional) {
        if (!faulted1->all_verified) {
          add_problem(problems, "fault: faulted run failed verification");
        }
        for (std::size_t i = 0; i < hyperq1->apps.size(); ++i) {
          if (faulted1->apps[i].output_digest !=
              hyperq1->apps[i].output_digest) {
            add_problem(problems, "fault: app ", i, " (", hyperq1->apps[i].type,
                        ") output digest diverges under transient faults (",
                        faulted1->apps[i].output_digest, " vs ",
                        hyperq1->apps[i].output_digest, ")");
          }
        }
      }
    }
  }

  return problems;
}

std::vector<FuzzFailure> Fuzzer::run_iteration(FuzzMode mode,
                                               std::uint64_t case_seed,
                                               const FuzzOptions& options,
                                               std::string* summary_out) {
  std::vector<FuzzFailure> failures;
  std::string summary;
  const auto record = [&](const char* check, std::string case_text,
                          std::vector<std::string> problems) {
    if (!problems.empty()) {
      failures.push_back({0, case_seed, check, std::move(case_text),
                          std::move(problems)});
    }
  };
  const auto run_check = [&](const char* check, auto checker,
                             const auto& config) {
    record(check, codec::to_text(config), checker(case_seed, config));
    summary += summary.empty() ? check : std::string("+") + check;
  };
  if (mode == FuzzMode::Harness) {
    std::vector<std::string> problems =
        run_case(case_seed, options.fault_rate, &summary);
    record("harness", summary, std::move(problems));
  } else if (mode == FuzzMode::Serve) {
    run_check("serve", check_serve, draw_serve_case(case_seed));
    summary += " seed=" + std::to_string(case_seed);
  } else {
    std::string flag;
    run_check("fleet",
              [&flag](std::uint64_t seed, const fleet::FleetConfig& config) {
                return check_fleet(seed, config, &flag);
              },
              draw_fleet_case(case_seed));
    if (options.chaos_rate > 0) {
      run_check("chaos", check_chaos,
                draw_chaos_case(case_seed, options.chaos_rate));
    }
    if (options.sdc_rate > 0) {
      run_check("sdc", check_sdc, draw_sdc_case(case_seed, options.sdc_rate));
    }
    summary += " seed=" + std::to_string(case_seed) + flag;
  }
  if (summary_out != nullptr) *summary_out = std::move(summary);
  return failures;
}

FuzzReport Fuzzer::run(const Progress& progress) {
  // Case seeds derive from the master seed exactly as the serial loop drew
  // them, so --jobs N fuzzes the same cases as --jobs 1. Serving-mode seeds
  // are drawn after the harness seeds, so enabling them never changes which
  // harness cases an existing master seed covers.
  Rng master(options_.seed);
  std::vector<std::uint64_t> case_seeds;
  std::vector<FuzzMode> modes;
  for (const auto& [mode, count] :
       {std::pair{FuzzMode::Harness, options_.iterations},
        std::pair{FuzzMode::Serve, options_.serve_iterations},
        std::pair{FuzzMode::Fleet, options_.fleet_iterations}}) {
    for (int i = 0; i < count; ++i) {
      case_seeds.push_back(master.next_u64());
      modes.push_back(mode);
    }
  }

  struct CaseResult {
    std::string summary;
    std::vector<FuzzFailure> failures;
  };
  const auto run_one = [&](std::size_t i) {
    CaseResult r;
    r.failures = run_iteration(modes[i], case_seeds[i], options_, &r.summary);
    return r;
  };

  // Reduce and report in iteration order as results retire: the report and
  // the progress sequence are byte-identical at any job count.
  FuzzReport report;
  const auto reduce = [&](std::size_t i, CaseResult r) {
    ++report.iterations_run;
    const bool clean = r.failures.empty();
    for (FuzzFailure& f : r.failures) {
      f.iteration = static_cast<int>(i);
      report.failures.push_back(std::move(f));
    }
    if (progress) progress(static_cast<int>(i), case_seeds[i], r.summary, clean);
  };

  const int jobs =
      options_.jobs == 0 ? exec::ThreadPool::hardware_jobs() : options_.jobs;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < case_seeds.size(); ++i) reduce(i, run_one(i));
  } else {
    exec::ThreadPool pool(jobs);
    std::vector<exec::Future<CaseResult>> futures;
    futures.reserve(case_seeds.size());
    for (std::size_t i = 0; i < case_seeds.size(); ++i) {
      futures.push_back(pool.submit([&run_one, i] { return run_one(i); }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      reduce(i, futures[i].get());
    }
  }
  return report;
}

std::string FuzzReport::to_string() const {
  std::ostringstream os;
  os << iterations_run << " iteration(s), " << failures.size()
     << " failing case(s)";
  for (const FuzzFailure& f : failures) {
    os << "\n[iteration " << f.iteration << "] " << f.check
       << " seed=" << f.case_seed << "\n  case " << f.case_text;
    for (const std::string& p : f.problems) os << "\n  - " << p;
  }
  return os.str();
}

}  // namespace hq::check
