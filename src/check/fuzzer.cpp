#include "check/fuzzer.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <sstream>

#include "common/check.hpp"
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

}  // namespace

FuzzCase generate_case(std::uint64_t case_seed) {
  Rng rng(case_seed);
  FuzzCase c;
  c.seed = case_seed;

  const auto& names = rodinia::app_names();
  const std::size_t num_types = 1 + rng.next_below(2);
  std::vector<std::size_t> picked;
  while (picked.size() < num_types) {
    const std::size_t i = rng.next_below(names.size());
    if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
      picked.push_back(i);
    }
  }
  for (const std::size_t i : picked) {
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

ServeFuzzCase generate_serve_case(std::uint64_t case_seed) {
  Rng rng(case_seed);
  ServeFuzzCase c;
  c.seed = case_seed;
  serve::ServiceConfig& cfg = c.config;

  const auto& names = rodinia::app_names();
  const std::size_t num_classes = 1 + rng.next_below(2);
  std::vector<std::size_t> picked;
  while (picked.size() < num_classes) {
    const std::size_t i = rng.next_below(names.size());
    if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
      picked.push_back(i);
    }
  }
  for (const std::size_t i : picked) {
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
  return c;
}

std::string ServeFuzzCase::summary() const {
  std::ostringstream os;
  os << "serve seed=" << seed << " classes=";
  for (std::size_t i = 0; i < config.classes.size(); ++i) {
    if (i > 0) os << "+";
    os << config.classes[i].item.type_name << "(p"
       << config.classes[i].priority << ")";
  }
  os << " ns=" << config.num_streams << " window=" << config.window
     << " gap=" << config.mean_interarrival << " cap=" << config.queue_cap
     << " inflight=" << config.max_inflight
     << " policy=" << serve::shed_policy_name(config.shed_policy)
     << " deadline=" << config.deadline;
  return os.str();
}

FleetFuzzCase generate_fleet_case(std::uint64_t case_seed) {
  FleetFuzzCase c;
  c.seed = case_seed;
  c.config.base = generate_serve_case(case_seed).config;
  // Fleet knobs draw from their own stream so they stay reproducible and
  // never perturb which serve config a case seed maps to.
  Rng rng(case_seed ^ 0xc2b2ae3d27d4eb4fULL);
  fleet::FleetConfig& cfg = c.config;

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
  return c;
}

std::string FleetFuzzCase::summary() const {
  std::ostringstream os;
  os << "fleet seed=" << seed << " n=" << config.num_devices()
     << " placement=" << fleet::placement_policy_name(config.placement)
     << " steal=" << config.work_stealing
     << " device-breaker=" << config.device_breaker_enabled << " classes=";
  for (std::size_t i = 0; i < config.base.classes.size(); ++i) {
    if (i > 0) os << "+";
    os << config.base.classes[i].item.type_name;
  }
  os << " window=" << config.base.window
     << " gap=" << config.base.mean_interarrival
     << " cap=" << config.base.queue_cap
     << " inflight=" << config.base.max_inflight;
  return os.str();
}

std::vector<std::string> Fuzzer::run_fleet_case(std::uint64_t case_seed,
                                                std::string* summary_out) {
  const FleetFuzzCase c = generate_fleet_case(case_seed);
  if (summary_out != nullptr) *summary_out = c.summary();
  std::vector<std::string> problems;
  const auto fail = [&problems](const std::ostringstream& os) {
    problems.push_back(os.str());
  };

  // A fleet run aborts (hq::Error) on an invariant violation — including
  // per-device serve accounting and the fleet conservation identity checked
  // inside FleetService::run — so every oracle failure carries its seed.
  const auto run_with = [&](const fleet::FleetConfig& cfg, const char* label)
      -> std::optional<fleet::FleetResult> {
    try {
      return fleet::FleetService(cfg).run();
    } catch (const hq::Error& e) {
      std::ostringstream os;
      os << label << ": " << e.what();
      fail(os);
      return std::nullopt;
    }
  };

  // Reported conservation: every arrival lands in exactly one terminal
  // state, and the per-device reports plus the fleet-only shed_no_device
  // reproduce the fleet totals.
  const auto check_conservation = [&](const fleet::FleetReport& r,
                                      const char* label) {
    const std::uint64_t terminal = r.completed_ok + r.completed_late +
                                   r.shed_queue_full + r.shed_breaker +
                                   r.shed_no_device + r.timed_out_queued +
                                   r.quarantined;
    if (r.arrived != terminal) {
      std::ostringstream os;
      os << label << ": fleet accounting leak (arrived " << r.arrived
         << " != terminal states " << terminal << ")";
      fail(os);
    }
    std::uint64_t device_arrived = 0;
    for (const fleet::FleetDeviceStats& dev : r.devices) {
      device_arrived += dev.report.arrived;
    }
    if (device_arrived + r.shed_no_device != r.arrived) {
      std::ostringstream os;
      os << label << ": per-device arrivals " << device_arrived
         << " + shed_no_device " << r.shed_no_device
         << " != fleet arrived " << r.arrived;
      fail(os);
    }
  };

  const auto fleet1 = run_with(c.config, "fleet-run1");
  const auto fleet2 = run_with(c.config, "fleet-run2");
  if (!fleet1 || !fleet2) return problems;

  // --- determinism: identical config => byte-identical fleet report ---------
  if (fleet::fleet_report_json(fleet1->report) !=
      fleet::fleet_report_json(fleet2->report)) {
    std::ostringstream os;
    os << "fleet determinism: reports differ across identical runs (digests "
       << fleet::fleet_report_digest(fleet1->report) << " vs "
       << fleet::fleet_report_digest(fleet2->report) << ")";
    fail(os);
  }
  check_conservation(fleet1->report, "fleet-base");

  // --- observability zero-perturbation ---------------------------------------
  // Attaching the fleet observability plane (per-device telemetry, the job
  // lifecycle tracer, fleet-scope metrics) must leave the report bytes
  // identical, and every export must itself be deterministic across runs.
  fleet::FleetConfig observed_cfg = c.config;
  observed_cfg.base.collect_metrics = true;
  const auto observed1 = run_with(observed_cfg, "fleet-observed1");
  const auto observed2 = run_with(observed_cfg, "fleet-observed2");
  if (observed1 && observed2) {
    if (fleet::fleet_report_json(observed1->report) !=
        fleet::fleet_report_json(fleet1->report)) {
      std::ostringstream os;
      os << "fleet observability perturbation: report changed with "
         << "observers attached (digests "
         << fleet::fleet_report_digest(observed1->report) << " vs "
         << fleet::fleet_report_digest(fleet1->report) << ")";
      fail(os);
    }
    try {
      if (fleet::fleet_metrics_json(*observed1) !=
              fleet::fleet_metrics_json(*observed2) ||
          fleet::fleet_prometheus_text(*observed1) !=
              fleet::fleet_prometheus_text(*observed2) ||
          fleet::fleet_chrome_trace_json(*observed1) !=
              fleet::fleet_chrome_trace_json(*observed2) ||
          fleet::fleet_snapshots_jsonl(*observed1, 500 * kMicrosecond) !=
              fleet::fleet_snapshots_jsonl(*observed2, 500 * kMicrosecond)) {
        std::ostringstream os;
        os << "fleet observability determinism: exports differ across "
           << "identical observed runs";
        fail(os);
      }
    } catch (const hq::Error& e) {
      std::ostringstream os;
      os << "fleet observability export failed: " << e.what();
      fail(os);
    }
  }

  // --- placement permutation safety under injected faults --------------------
  // Every policy must preserve conservation even with a transient fault
  // plan and the device health breaker quarantining/rebalancing devices.
  fleet::FleetConfig faulted = c.config;
  faulted.base.fault_plan = case_fault_plan(case_seed, 0.5);
  faulted.device_breaker_enabled = true;
  faulted.device_breaker.failure_threshold = 2;
  faulted.device_breaker.cooldown = 2 * kMillisecond;
  for (const fleet::PlacementPolicy policy : fleet::all_placement_policies()) {
    faulted.placement = policy;
    std::ostringstream label;
    label << "fleet-faulted-" << fleet::placement_policy_name(policy);
    if (const auto run = run_with(faulted, label.str().c_str())) {
      check_conservation(run->report, label.str().c_str());
    }
  }

  // --- fleet-size monotonicity (flagged, not gating) --------------------------
  // Queueing noise can make a bigger fleet complete marginally less at a
  // fixed load, so a violation flags the case for inspection instead of
  // failing it.
  if (c.config.num_devices() > 1 && summary_out != nullptr) {
    fleet::FleetConfig single;
    single.base = c.config.base;
    const auto single_run = run_with(single, "fleet-single");
    if (single_run &&
        fleet1->report.completed < single_run->report.completed) {
      std::ostringstream os;
      os << *summary_out << " [flag: n=" << c.config.num_devices()
         << " fleet completed " << fleet1->report.completed
         << " < single-device " << single_run->report.completed << "]";
      *summary_out = os.str();
    }
  }

  return problems;
}

std::vector<std::string> Fuzzer::run_fleet_chaos_case(
    std::uint64_t case_seed, double chaos_rate, std::string* summary_out) {
  FleetFuzzCase c = generate_fleet_case(case_seed);
  // Chaos draws from its own stream, so a case seed maps to exactly the
  // fleet config run_fleet_case saw, plus a deterministic lifecycle-fault
  // schedule and failover/hedging knobs layered on top.
  Rng rng(case_seed ^ 0x94d049bb133111ebULL);
  fleet::FleetConfig& cfg = c.config;
  const std::size_t n = cfg.num_devices();
  const DurationNs window = cfg.base.window;

  cfg.device_fault_plans.assign(n, fault::FaultPlan{});
  std::size_t chaotic = 0;
  for (std::size_t d = 0; d < n; ++d) {
    // Fixed draw sequence per device, consumed whether or not the device
    // ends up chaotic, so every decision is a pure function of the seed.
    const double verdict = rng.next_double();
    const std::size_t kind = rng.next_below(3);
    const TimeNs at = static_cast<TimeNs>(
        window / 5 + rng.next_below(static_cast<std::uint64_t>(window) * 3 / 5));
    const std::uint64_t plan_seed = rng.next_u64();
    if (verdict >= chaos_rate) continue;
    fault::FaultPlan plan = fault::FaultPlan::zero();
    plan.seed = plan_seed;
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
    cfg.device_fault_plans[d] = plan;
    ++chaotic;
  }
  cfg.failover_budget = static_cast<int>(rng.next_below(4));
  cfg.hedging = rng.next_below(2) == 0;
  cfg.hedge_threshold = rng.next_below(2) == 0 ? 1.5 : 2.5;
  cfg.hedge_min_samples = 2 + rng.next_below(3);

  if (summary_out != nullptr) {
    std::ostringstream os;
    os << c.summary() << " chaos=" << chaotic << "/" << n
       << " budget=" << cfg.failover_budget
       << " hedge=" << cfg.hedging;
    *summary_out = os.str();
  }
  std::vector<std::string> problems;
  const auto fail = [&problems](const std::ostringstream& os) {
    problems.push_back(os.str());
  };

  const auto run_with = [&](const fleet::FleetConfig& run_cfg,
                            const char* label)
      -> std::optional<fleet::FleetResult> {
    try {
      return fleet::FleetService(run_cfg).run();
    } catch (const hq::Error& e) {
      std::ostringstream os;
      os << label << ": " << e.what();
      fail(os);
      return std::nullopt;
    }
  };

  // No-job-lost conservation under arbitrary crash schedules: every
  // arrival lands in exactly one terminal state — including the fleet-only
  // shed_failover_exhausted — and per-device arrivals plus the fleet-only
  // sheds reproduce the fleet total.
  const auto check_chaos_conservation = [&](const fleet::FleetReport& r,
                                            const char* label) {
    const std::uint64_t terminal = r.completed_ok + r.completed_late +
                                   r.shed_queue_full + r.shed_breaker +
                                   r.shed_no_device + r.timed_out_queued +
                                   r.quarantined + r.shed_failover_exhausted;
    if (r.arrived != terminal) {
      std::ostringstream os;
      os << label << ": chaos accounting leak (arrived " << r.arrived
         << " != terminal states " << terminal << ")";
      fail(os);
    }
    std::uint64_t device_arrived = 0;
    for (const fleet::FleetDeviceStats& dev : r.devices) {
      device_arrived += dev.report.arrived;
    }
    if (device_arrived + r.shed_no_device + r.shed_failover_exhausted !=
        r.arrived) {
      std::ostringstream os;
      os << label << ": per-device arrivals " << device_arrived
         << " + shed_no_device " << r.shed_no_device
         << " + shed_failover_exhausted " << r.shed_failover_exhausted
         << " != fleet arrived " << r.arrived;
      fail(os);
    }
  };

  const auto chaos1 = run_with(cfg, "chaos-run1");
  const auto chaos2 = run_with(cfg, "chaos-run2");
  if (!chaos1 || !chaos2) return problems;
  check_chaos_conservation(chaos1->report, "chaos-base");

  // --- failover determinism --------------------------------------------------
  if (fleet::fleet_report_json(chaos1->report) !=
      fleet::fleet_report_json(chaos2->report)) {
    std::ostringstream os;
    os << "chaos determinism: reports differ across identical runs (digests "
       << fleet::fleet_report_digest(chaos1->report) << " vs "
       << fleet::fleet_report_digest(chaos2->report) << ")";
    fail(os);
  }

  // --- inert-knob identity ---------------------------------------------------
  // Hedging off, all per-device plans disabled, and a moved (but inert)
  // failover budget must reproduce the chaos-free fleet case byte-for-byte.
  fleet::FleetConfig inert = cfg;
  inert.device_fault_plans.assign(n, fault::FaultPlan{});
  inert.hedging = false;
  const fleet::FleetConfig baseline = generate_fleet_case(case_seed).config;
  const auto inert_run = run_with(inert, "chaos-inert");
  const auto baseline_run = run_with(baseline, "chaos-baseline");
  if (inert_run && baseline_run) {
    if (fleet::fleet_report_json(inert_run->report) !=
        fleet::fleet_report_json(baseline_run->report)) {
      std::ostringstream os;
      os << "chaos inert-knob perturbation: hedging off + disabled plans "
         << "changed the report (digests "
         << fleet::fleet_report_digest(inert_run->report) << " vs "
         << fleet::fleet_report_digest(baseline_run->report) << ")";
      fail(os);
    }
  }

  // --- all devices dead => clean drain ---------------------------------------
  // Every device crashes at the same instant: the run must terminate with
  // no invariant violation, conserve every arrival, and complete nothing
  // after the crash.
  fleet::FleetConfig doomed = cfg;
  fault::FaultPlan crash_all = fault::FaultPlan::zero();
  crash_all.crash_at = window / 3;
  doomed.device_fault_plans.assign(n, crash_all);
  if (const auto dead = run_with(doomed, "chaos-all-dead")) {
    check_chaos_conservation(dead->report, "chaos-all-dead");
    for (const serve::JobRecord& job : dead->jobs) {
      if ((job.state == serve::JobState::CompletedOk ||
           job.state == serve::JobState::CompletedLate) &&
          job.completed_at > crash_all.crash_at) {
        std::ostringstream os;
        os << "chaos-all-dead: job " << job.job_id << " completed at "
           << job.completed_at << " after every device crashed at "
           << crash_all.crash_at;
        fail(os);
        break;
      }
    }
  }

  return problems;
}

std::vector<std::string> Fuzzer::run_fleet_sdc_case(std::uint64_t case_seed,
                                                    double sdc_rate,
                                                    std::string* summary_out) {
  FleetFuzzCase c = generate_fleet_case(case_seed);
  // SDC draws from their own stream, so a case seed maps to exactly the
  // fleet config run_fleet_case saw, plus a deterministic corruption
  // schedule and integrity knobs layered on top.
  Rng rng(case_seed ^ 0xd6e8feb86659fd93ULL);
  fleet::FleetConfig& cfg = c.config;
  const std::size_t n = cfg.num_devices();
  const DurationNs window = cfg.base.window;

  cfg.device_fault_plans.assign(n, fault::FaultPlan{});
  std::size_t corrupting = 0;
  for (std::size_t d = 0; d < n; ++d) {
    // Fixed draw sequence per device, consumed whether or not the device
    // ends up corrupting, so every decision is a pure function of the seed.
    const double verdict = rng.next_double();
    const std::size_t kind = rng.next_below(3);
    const TimeNs at = static_cast<TimeNs>(
        window / 5 + rng.next_below(static_cast<std::uint64_t>(window) * 3 / 5));
    const std::uint64_t plan_seed = rng.next_u64();
    if (verdict >= sdc_rate) continue;
    fault::FaultPlan plan = fault::FaultPlan::zero();
    plan.seed = plan_seed;
    if (kind == 0) {
      plan.sdc_copy_rate = 0.4;
    } else if (kind == 1) {
      plan.sdc_kernel_rate = 0.6;
      plan.sdc_at = at;
    } else {
      plan.sdc_stuck_at = at;
    }
    cfg.device_fault_plans[d] = plan;
    ++corrupting;
  }
  cfg.integrity = rng.next_below(2) == 0 ? fleet::IntegrityPolicy::SpotCheck
                                         : fleet::IntegrityPolicy::Dmr;
  cfg.spotcheck_rate = rng.next_below(2) == 0 ? 0.5 : 1.0;
  cfg.sdc_blocklist_threshold = rng.next_below(2) == 0 ? 0.6 : 0.8;
  cfg.failover_budget = 1 + static_cast<int>(rng.next_below(3));
  // The lifecycle tracer backs the blocklist-placement oracle; attaching it
  // is zero-perturbation (the observability oracle pins that).
  cfg.base.collect_metrics = true;

  if (summary_out != nullptr) {
    std::ostringstream os;
    os << c.summary() << " sdc=" << corrupting << "/" << n << " policy="
       << fleet::integrity_policy_name(cfg.integrity)
       << " spotcheck=" << cfg.spotcheck_rate
       << " blocklist=" << cfg.sdc_blocklist_threshold;
    *summary_out = os.str();
  }
  std::vector<std::string> problems;
  const auto fail = [&problems](const std::ostringstream& os) {
    problems.push_back(os.str());
  };

  const auto run_with = [&](const fleet::FleetConfig& run_cfg,
                            const char* label)
      -> std::optional<fleet::FleetResult> {
    try {
      return fleet::FleetService(run_cfg).run();
    } catch (const hq::Error& e) {
      std::ostringstream os;
      os << label << ": " << e.what();
      fail(os);
      return std::nullopt;
    }
  };

  // Conservation with verification re-executions counted as attempts:
  // every arrival still lands in exactly one terminal state, per-device
  // arrivals reproduce the fleet total, and every dispatched re-execution
  // is attributed to exactly one device.
  const auto check_sdc_conservation = [&](const fleet::FleetReport& r,
                                          const char* label) {
    const std::uint64_t terminal = r.completed_ok + r.completed_late +
                                   r.shed_queue_full + r.shed_breaker +
                                   r.shed_no_device + r.timed_out_queued +
                                   r.quarantined + r.shed_failover_exhausted;
    if (r.arrived != terminal) {
      std::ostringstream os;
      os << label << ": sdc accounting leak (arrived " << r.arrived
         << " != terminal states " << terminal << ")";
      fail(os);
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
      std::ostringstream os;
      os << label << ": per-device arrivals " << device_arrived
         << " + fleet-only sheds don't reproduce fleet arrived "
         << r.arrived;
      fail(os);
    }
    if (device_verifications != r.reexecutions) {
      std::ostringstream os;
      os << label << ": per-device verifications " << device_verifications
         << " != fleet reexecutions " << r.reexecutions;
      fail(os);
    }
    if (device_injected != r.sdc_injected) {
      std::ostringstream os;
      os << label << ": per-device sdc_injected " << device_injected
         << " != fleet sdc_injected " << r.sdc_injected;
      fail(os);
    }
    if (device_blocklisted != r.devices_blocklisted) {
      std::ostringstream os;
      os << label << ": per-device blocklisted flags " << device_blocklisted
         << " != fleet devices_blocklisted " << r.devices_blocklisted;
      fail(os);
    }
    // The exact partition: every corrupted result was either caught by a
    // mismatching comparison or served silently.
    if (r.sdc_injected != r.sdc_detected + r.sdc_missed) {
      std::ostringstream os;
      os << label << ": sdc partition broken (" << r.sdc_injected
         << " injected != " << r.sdc_detected << " detected + "
         << r.sdc_missed << " missed)";
      fail(os);
    }
  };

  const auto sdc1 = run_with(cfg, "sdc-run1");
  const auto sdc2 = run_with(cfg, "sdc-run2");
  if (!sdc1 || !sdc2) return problems;
  check_sdc_conservation(sdc1->report, "sdc-base");

  // --- determinism -----------------------------------------------------------
  if (fleet::fleet_report_json(sdc1->report) !=
      fleet::fleet_report_json(sdc2->report)) {
    std::ostringstream os;
    os << "sdc determinism: reports differ across identical runs (digests "
       << fleet::fleet_report_digest(sdc1->report) << " vs "
       << fleet::fleet_report_digest(sdc2->report) << ")";
    fail(os);
  }

  // --- inert-plan identity ---------------------------------------------------
  // All-clean plans + Trust must reproduce the integrity-free fleet case
  // byte-for-byte: the whole pipeline is gated, not merely quiet.
  fleet::FleetConfig inert = cfg;
  inert.device_fault_plans.assign(n, fault::FaultPlan{});
  inert.integrity = fleet::IntegrityPolicy::Trust;
  const fleet::FleetConfig baseline = generate_fleet_case(case_seed).config;
  const auto inert_run = run_with(inert, "sdc-inert");
  const auto baseline_run = run_with(baseline, "sdc-baseline");
  if (inert_run && baseline_run) {
    if (fleet::fleet_report_json(inert_run->report) !=
        fleet::fleet_report_json(baseline_run->report)) {
      std::ostringstream os;
      os << "sdc inert-plan perturbation: clean plans + trust policy "
         << "changed the report (digests "
         << fleet::fleet_report_digest(inert_run->report) << " vs "
         << fleet::fleet_report_digest(baseline_run->report) << ")";
      fail(os);
    }
  }

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
            std::ostringstream os;
            os << "sdc blocklist leak: job " << job << " event "
               << serve::job_event_kind_name(e.kind) << " landed on device "
               << d << " at " << e.at << " after its blocklist at "
               << dev.blocklisted_at;
            fail(os);
          }
        }
      }
    }
  }

  return problems;
}

std::vector<std::string> Fuzzer::run_serve_case(std::uint64_t case_seed,
                                                std::string* summary_out) {
  const ServeFuzzCase c = generate_serve_case(case_seed);
  if (summary_out != nullptr) *summary_out = c.summary();
  std::vector<std::string> problems;
  const auto fail = [&problems](const std::ostringstream& os) {
    problems.push_back(os.str());
  };

  // A serve run aborts (hq::Error) on an invariant violation — including
  // the serve-accounting identity checked inside Service::run — so every
  // oracle failure is reported with its case seed.
  const auto run_with = [&](const serve::ServiceConfig& cfg, const char* label)
      -> std::optional<serve::ServeResult> {
    try {
      return serve::Service(cfg).run();
    } catch (const hq::Error& e) {
      std::ostringstream os;
      os << label << ": " << e.what();
      fail(os);
      return std::nullopt;
    }
  };

  const auto base1 = run_with(c.config, "serve-run1");
  const auto base2 = run_with(c.config, "serve-run2");
  if (!base1 || !base2) return problems;

  // --- determinism: identical config => byte-identical report ---------------
  if (serve::report_json(base1->report) != serve::report_json(base2->report)) {
    std::ostringstream os;
    os << "serve determinism: reports differ across identical runs (digests "
       << serve::report_digest(base1->report) << " vs "
       << serve::report_digest(base2->report) << ")";
    fail(os);
  }

  // --- accounting: conservation + shed jobs consume no device time ----------
  const serve::ServeReport& r = base1->report;
  if (r.arrived != r.completed_ok + r.completed_late + r.shed_queue_full +
                       r.shed_breaker + r.timed_out_queued + r.quarantined) {
    std::ostringstream os;
    os << "serve accounting: arrived " << r.arrived
       << " != completed_ok " << r.completed_ok << " + completed_late "
       << r.completed_late << " + shed " << r.shed_queue_full << "+"
       << r.shed_breaker << " + timed-out " << r.timed_out_queued
       << " + quarantined " << r.quarantined;
    fail(os);
  }
  for (const serve::JobRecord& job : base1->jobs) {
    const bool undispatched = job.state == serve::JobState::ShedQueueFull ||
                              job.state == serve::JobState::ShedBreaker ||
                              job.state == serve::JobState::TimedOutQueued;
    if (undispatched && (job.dispatched_at != 0 || job.completed_at != 0)) {
      std::ostringstream os;
      os << "serve accounting: job " << job.job_id << " is "
         << serve::job_state_name(job.state)
         << " but carries device timestamps (dispatched "
         << job.dispatched_at << ", completed " << job.completed_at << ")";
      fail(os);
    }
  }

  // --- queue-cap monotonicity ------------------------------------------------
  serve::ServiceConfig uncapped = c.config;
  uncapped.queue_cap = 0;
  if (const auto unbounded = run_with(uncapped, "serve-uncapped")) {
    if (unbounded->report.arrived != r.arrived) {
      std::ostringstream os;
      os << "serve metamorphic: arrivals depend on the queue cap ("
         << unbounded->report.arrived << " uncapped vs " << r.arrived << ")";
      fail(os);
    }
    if (unbounded->report.completed < r.completed) {
      std::ostringstream os;
      os << "serve metamorphic: removing the queue cap decreased completed "
         << "jobs (" << unbounded->report.completed << " < " << r.completed
         << ")";
      fail(os);
    }
  }

  // --- deadline monotonicity (drop-tail, no expiry: pure accounting) --------
  serve::ServiceConfig loose = c.config;
  loose.shed_policy = serve::ShedPolicy::DropTail;
  loose.expire_queued = false;
  loose.deadline = 4 * kMillisecond;
  serve::ServiceConfig tight = loose;
  tight.deadline = kMillisecond;
  const auto loose_run = run_with(loose, "serve-deadline-loose");
  const auto tight_run = run_with(tight, "serve-deadline-tight");
  if (loose_run && tight_run) {
    if (loose_run->report.trace_digest != tight_run->report.trace_digest) {
      std::ostringstream os;
      os << "serve metamorphic: accounting-only deadline perturbed the "
         << "schedule (digests " << loose_run->report.trace_digest << " vs "
         << tight_run->report.trace_digest << ")";
      fail(os);
    }
    if (tight_run->report.goodput_per_sec >
        loose_run->report.goodput_per_sec) {
      std::ostringstream os;
      os << "serve metamorphic: tightening the deadline increased goodput ("
         << tight_run->report.goodput_per_sec << "/s > "
         << loose_run->report.goodput_per_sec << "/s)";
      fail(os);
    }
  }

  // --- zero perturbation: features off, zero-rate plan == no plan ---------
  // With every overload feature off, attaching a zero-rate fault plan and
  // the metrics registry must leave the schedule untouched.
  serve::ServiceConfig bare = c.config;
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
  const auto bare_run = run_with(bare, "serve-bare");
  const auto plain_run = run_with(plain, "serve-plain");
  if (bare_run && plain_run &&
      (bare_run->report.trace_digest != plain_run->report.trace_digest ||
       bare_run->report.arrived != plain_run->report.arrived)) {
    std::ostringstream os;
    os << "serve zero-perturbation: bare service with a zero-rate plan "
       << "diverges from the plan-free run (digests "
       << bare_run->report.trace_digest << " vs "
       << plain_run->report.trace_digest << ", arrived "
       << bare_run->report.arrived << " vs " << plain_run->report.arrived
       << ")";
    fail(os);
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
  const auto fail = [&problems](const std::ostringstream& os) {
    problems.push_back(os.str());
  };

  const auto workload =
      rodinia::build_workload(c.slots, c.type_names, c.params);

  // A harness run aborts (hq::Error) on an invariant violation; catch it so
  // every oracle failure of the case is reported with its seed.
  const auto run_with = [&](const fw::HarnessConfig& cfg, const char* label)
      -> std::optional<fw::HarnessResult> {
    try {
      fw::Harness harness(cfg);
      return harness.run(workload);
    } catch (const hq::Error& e) {
      std::ostringstream os;
      os << label << ": " << e.what();
      fail(os);
      return std::nullopt;
    }
  };

  const auto hyperq1 = run_with(c.config, "hyperq-run1");
  const auto hyperq2 = run_with(c.config, "hyperq-run2");
  fw::HarnessConfig serial_cfg = c.config;
  serial_cfg.num_streams = 1;
  const auto serial = run_with(serial_cfg, "serial");
  fw::HarnessConfig fermi_cfg = c.config;
  fermi_cfg.device = gpu::DeviceSpec::fermi_single_queue();
  const auto fermi = run_with(fermi_cfg, "fermi");
  if (!hyperq1 || !hyperq2 || !serial || !fermi) return problems;

  // --- determinism: identical seed => identical run --------------------------
  const std::uint64_t digest1 = trace::digest(*hyperq1->trace);
  const std::uint64_t digest2 = trace::digest(*hyperq2->trace);
  if (digest1 != digest2) {
    std::ostringstream os;
    os << "determinism: trace digests differ across identical runs ("
       << digest1 << " vs " << digest2 << ")";
    fail(os);
  }
  if (hyperq1->makespan != hyperq2->makespan) {
    std::ostringstream os;
    os << "determinism: makespan differs across identical runs ("
       << hyperq1->makespan << " vs " << hyperq2->makespan << ")";
    fail(os);
  }
  if (hyperq1->energy_exact != hyperq2->energy_exact) {
    std::ostringstream os;
    os << "determinism: energy differs across identical runs ("
       << hyperq1->energy_exact << " vs " << hyperq2->energy_exact << ")";
    fail(os);
  }

  // --- serialization: NS = 1 is never faster ---------------------------------
  if (serial->makespan < hyperq1->makespan) {
    std::ostringstream os;
    os << "metamorphic: serialized makespan " << serial->makespan
       << " < concurrent makespan " << hyperq1->makespan;
    fail(os);
  }

  // --- Hyper-Q: the Fermi single-queue ablation is never materially faster ---
  // Strict dominance does not hold pointwise: head-of-line blocking changes
  // block placement order, and the contention model stretches a block by the
  // occupancy it sees at placement, so Fermi can finish a hair earlier
  // (measured < 0.8% over thousands of cases). A 2% guard band separates
  // that modelling noise from real scheduling regressions.
  if (static_cast<double>(fermi->makespan) <
      static_cast<double>(hyperq1->makespan) * 0.98) {
    std::ostringstream os;
    os << "metamorphic: Fermi makespan " << fermi->makespan
       << " materially below Hyper-Q makespan " << hyperq1->makespan;
    fail(os);
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
      std::ostringstream os;
      os << "work conservation: " << label
         << " device stats differ from the Hyper-Q run (kernels "
         << got.kernels_completed << "/" << want.kernels_completed
         << ", copies " << got.copies_htod << "+" << got.copies_dtoh << "/"
         << want.copies_htod << "+" << want.copies_dtoh << ")";
      fail(os);
    }
  };
  check_stats(serial->device_stats, "serialized");
  check_stats(fermi->device_stats, "Fermi");

  // --- Eq. 1–2 bounds on effective transfer latency --------------------------
  for (const fw::AppMetrics& m : hyperq1->apps) {
    if (m.htod_effective_latency > 0 &&
        m.htod_own_time > m.htod_effective_latency) {
      std::ostringstream os;
      os << "latency bound: app " << m.app_id << " (" << m.type
         << ") effective HtoD latency " << m.htod_effective_latency
         << " below own service time " << m.htod_own_time;
      fail(os);
    }
    if (m.htod_effective_latency > hyperq1->makespan ||
        m.dtoh_effective_latency > hyperq1->makespan) {
      std::ostringstream os;
      os << "latency bound: app " << m.app_id << " (" << m.type
         << ") effective latency exceeds makespan " << hyperq1->makespan;
      fail(os);
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
      std::ostringstream os;
      os << "energy: phase energy " << hyperq1->energy_exact
         << " J outside plausible range [" << floor << ", " << ceiling << "]";
      fail(os);
    }
  }

  // --- functional equivalence across scheduling modes -------------------------
  if (c.config.functional) {
    const auto check_verified = [&](const fw::HarnessResult& r,
                                    const char* label) {
      if (!r.all_verified) {
        std::ostringstream os;
        os << "functional: " << label << " run failed verification";
        fail(os);
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
        std::ostringstream os;
        os << "functional: app " << i << " (" << hyperq1->apps[i].type
           << ") output digests diverge across modes (hq " << d_hq1 << "/"
           << d_hq2 << ", serial " << d_serial << ", fermi " << d_fermi << ")";
        fail(os);
      }
    }
  }

  // --- fault-mode oracles ------------------------------------------------------
  if (fault_rate > 0.0) {
    // Attaching an all-zero-rate plan must perturb nothing.
    fw::HarnessConfig zero_cfg = c.config;
    zero_cfg.fault_plan = fault::FaultPlan::zero();
    const auto zeroed = run_with(zero_cfg, "fault-zero");
    if (zeroed) {
      if (trace::digest(*zeroed->trace) != digest1) {
        std::ostringstream os;
        os << "fault: zero-rate plan perturbed the trace digest ("
           << trace::digest(*zeroed->trace) << " vs " << digest1 << ")";
        fail(os);
      }
      if (zeroed->degraded.stats.total() != 0 ||
          !zeroed->degraded.quarantined.empty()) {
        std::ostringstream os;
        os << "fault: zero-rate plan reported "
           << zeroed->degraded.stats.total() << " faults / "
           << zeroed->degraded.quarantined.size() << " quarantined apps";
        fail(os);
      }
    }

    fw::HarnessConfig fault_cfg = c.config;
    fault_cfg.fault_plan = case_fault_plan(case_seed, fault_rate);
    const auto faulted1 = run_with(fault_cfg, "fault-run1");
    const auto faulted2 = run_with(fault_cfg, "fault-run2");
    if (faulted1 && faulted2) {
      // Determinism: the same plan + seed reproduces the faulted run.
      if (trace::digest(*faulted1->trace) != trace::digest(*faulted2->trace) ||
          faulted1->makespan != faulted2->makespan ||
          faulted1->degraded.stats.total() !=
              faulted2->degraded.stats.total()) {
        std::ostringstream os;
        os << "fault: faulted run is not deterministic (digests "
           << trace::digest(*faulted1->trace) << "/"
           << trace::digest(*faulted2->trace) << ", makespans "
           << faulted1->makespan << "/" << faulted2->makespan << ", faults "
           << faulted1->degraded.stats.total() << "/"
           << faulted2->degraded.stats.total() << ")";
        fail(os);
      }
      // Injected faults only ever add service time or submission delay, so
      // the faulted run is never materially faster (same 2% guard band as
      // the Fermi oracle for contention-model noise).
      if (static_cast<double>(faulted1->makespan) <
          static_cast<double>(hyperq1->makespan) * 0.98) {
        std::ostringstream os;
        os << "fault: faulted makespan " << faulted1->makespan
           << " materially below fault-free makespan " << hyperq1->makespan;
        fail(os);
      }
      // Transient faults never drop device work, and the plan stays below
      // the retry budget, so nothing may be quarantined.
      check_stats(faulted1->device_stats, "faulted");
      if (!faulted1->degraded.quarantined.empty()) {
        std::ostringstream os;
        os << "fault: transient-only plan quarantined "
           << faulted1->degraded.quarantined.size() << " app(s)";
        fail(os);
      }
      // At full intensity every copy draws a stall at rate 0.25 and every
      // launch at rate 0.5 — a run with zero observed faults means the
      // injector is wired to nothing.
      if (fault_rate >= 1.0 && faulted1->degraded.stats.total() == 0) {
        std::ostringstream os;
        os << "fault: rate-1 plan injected zero faults";
        fail(os);
      }
      // Retried launches still reach the device: functional outputs are
      // byte-identical to the fault-free run.
      if (c.config.functional) {
        if (!faulted1->all_verified) {
          std::ostringstream os;
          os << "fault: faulted run failed verification";
          fail(os);
        }
        for (std::size_t i = 0; i < hyperq1->apps.size(); ++i) {
          if (faulted1->apps[i].output_digest !=
              hyperq1->apps[i].output_digest) {
            std::ostringstream os;
            os << "fault: app " << i << " (" << hyperq1->apps[i].type
               << ") output digest diverges under transient faults ("
               << faulted1->apps[i].output_digest << " vs "
               << hyperq1->apps[i].output_digest << ")";
            fail(os);
          }
        }
      }
    }
  }

  return problems;
}

FuzzReport Fuzzer::run(const Progress& progress) {
  // Case seeds derive from the master seed exactly as the serial loop drew
  // them, so --jobs N fuzzes the same cases as --jobs 1. Serving-mode seeds
  // are drawn after the harness seeds, so enabling them never changes which
  // harness cases an existing master seed covers.
  Rng master(options_.seed);
  const std::size_t harness_cases = static_cast<std::size_t>(options_.iterations);
  const std::size_t serve_cases =
      static_cast<std::size_t>(options_.serve_iterations);
  std::vector<std::uint64_t> case_seeds;
  case_seeds.reserve(harness_cases + serve_cases +
                     static_cast<std::size_t>(options_.fleet_iterations));
  for (int i = 0; i < options_.iterations; ++i) {
    case_seeds.push_back(master.next_u64());
  }
  for (int i = 0; i < options_.serve_iterations; ++i) {
    case_seeds.push_back(master.next_u64());
  }
  for (int i = 0; i < options_.fleet_iterations; ++i) {
    case_seeds.push_back(master.next_u64());
  }

  struct CaseResult {
    std::string summary;
    std::vector<std::string> problems;
  };
  const auto run_one = [&](std::size_t i) {
    CaseResult r;
    if (i < harness_cases) {
      r.problems = run_case(case_seeds[i], options_.fault_rate, &r.summary);
    } else if (i < harness_cases + serve_cases) {
      r.problems = run_serve_case(case_seeds[i], &r.summary);
    } else {
      r.problems = run_fleet_case(case_seeds[i], &r.summary);
      if (options_.chaos_rate > 0) {
        std::string chaos_summary;
        std::vector<std::string> chaos = run_fleet_chaos_case(
            case_seeds[i], options_.chaos_rate, &chaos_summary);
        r.summary = std::move(chaos_summary);
        r.problems.insert(r.problems.end(),
                          std::make_move_iterator(chaos.begin()),
                          std::make_move_iterator(chaos.end()));
      }
      if (options_.sdc_rate > 0) {
        std::string sdc_summary;
        std::vector<std::string> sdc = run_fleet_sdc_case(
            case_seeds[i], options_.sdc_rate, &sdc_summary);
        r.summary = std::move(sdc_summary);
        r.problems.insert(r.problems.end(),
                          std::make_move_iterator(sdc.begin()),
                          std::make_move_iterator(sdc.end()));
      }
    }
    return r;
  };

  // Reduce and report in iteration order as results retire: the report and
  // the progress sequence are byte-identical at any job count.
  FuzzReport report;
  const auto reduce = [&](std::size_t i, CaseResult r) {
    ++report.iterations_run;
    const bool clean = r.problems.empty();
    if (!clean) {
      FuzzFailure f;
      f.iteration = static_cast<int>(i);
      f.case_seed = case_seeds[i];
      f.case_summary = r.summary;
      f.problems = std::move(r.problems);
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
    os << "\n[iteration " << f.iteration << "] " << f.case_summary;
    for (const std::string& p : f.problems) os << "\n  - " << p;
  }
  return os.str();
}

}  // namespace hq::check
