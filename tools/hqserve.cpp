// hqserve — overload-robust streaming serving driver.
//
// Runs the serve::Service engine: open Poisson (or replayed) arrivals onto
// the simulated Hyper-Q device, with a bounded admission queue, per-job
// deadlines and SLO accounting, an auto-memsync overload controller, and
// per-class circuit breakers over the fault-injection layer. Reports are
// byte-identical for a given config + seed at any --jobs count.
//
// Examples:
//   hqserve --mix gaussian,needle --size 96 --window-ms 20 --mean-gap-us 400
//   hqserve --mix gaussian:2,nn:0 --queue-cap 12 --shed-policy priority
//   hqserve --mix gaussian --deadline-us 3000 --expire-queued --report json
//   hqserve --mix gaussian --auto-memsync --breaker
//           --fault-plan launch-fail-rate=0.2,seed=7
//   hqserve --mix gaussian --size 64 --sweep-cap 4,8,16,0 --jobs 0
//   hqserve --mix gaussian --arrivals arrivals.txt   (lines: <time_us> <class>)
//
// Fleet mode (--devices / --device-spec-file / --sweep-fleet) shards the
// service across N simulated devices under one virtual clock, with a
// pluggable placement policy, optional work stealing, and per-device
// health breakers (src/fleet):
//   hqserve --mix gaussian --devices 4 --placement least-loaded
//   hqserve --mix gaussian --device-spec-file fleet.txt --steal
//           (lines: 'k20|fermi|single-copy [name=.. smx=N queues=N
//            copy-engines=N]')
//   hqserve --mix gaussian --sweep-fleet 1,2,4 --sweep-placement all
//           --jobs 0 --journal fleet.journal --resume
//
// Fleet fault domains layer device-lifecycle chaos on fleet mode: a
// per-device fault-plan file (--device-fault-plan-file, one --fault-plan
// line per device, 'disabled' = fault-free) can crash, flap, or degrade
// individual devices; displaced jobs fail over to survivors within
// --failover-budget hops, and --hedge races straggling jobs on idle peers:
//   hqserve --mix gaussian --devices 4 --device-fault-plan-file chaos.txt
//           --failover-budget 2 --hedge --hedge-threshold 2.5
//
// The integrity pipeline detects silent data corruption: --sdc-plan-file
// gives devices seeded corruption plans (sdc-copy-rate=, sdc-kernel-rate=,
// sdc-at-us=, sdc-stuck-at-us=) and --integrity picks the verification
// policy (trust = accept everything, spotcheck = re-execute a seeded
// fraction on a different device, dmr = re-execute every job and break
// mismatches with a third vote). Devices whose SDC score crosses
// --sdc-blocklist-threshold are permanently blocklisted:
//   hqserve --mix gaussian --devices 4 --sdc-plan-file sdc.txt
//           --integrity spotcheck --spotcheck-rate 0.25
//
// Exit codes: 0 success, 2 usage error, 3 run error (hq::Error).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/table.hpp"
#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/sweep.hpp"
#include "fleet/telemetry.hpp"
#include "obs/report.hpp"
#include "rodinia/registry.hpp"
#include "serve/report.hpp"
#include "serve/service.hpp"
#include "tools/cli.hpp"
#include "trace/chrome_trace.hpp"

namespace {

using hq::tools::split_csv;

/// Parses one --mix entry of the form "app" or "app:priority".
bool parse_class(const std::string& entry, int size,
                 hq::serve::ServiceConfig& config, std::string* error) {
  const std::size_t colon = std::min(entry.find(':'), entry.size());
  const std::string name = entry.substr(0, colon);
  int priority = 0;
  const char* end = entry.data() + entry.size();
  if (colon < entry.size()) {
    const auto [ptr, ec] = std::from_chars(&entry[colon + 1], end, priority);
    if (ec != std::errc() || ptr != end) {
      *error = "bad priority in mix entry '" + entry + "'";
      return false;
    }
  }
  if (!hq::rodinia::is_app_name(name)) {
    *error = "unknown application '" + name + "'";
    return false;
  }
  hq::rodinia::AppParams params;
  if (size > 0) params.size = size;
  config.classes.push_back({hq::rodinia::make_app(name, params), priority});
  return true;
}

/// Reads the `what` file at `path`: calls `parse(line, where)` for every
/// line but blank ones and '#' comments, `where` being "<path>:<line>",
/// and stops at the first line it rejects.
bool read_lines(
    const std::string& path, const std::string& what, std::string* error,
    const std::function<bool(const std::string&, const std::string&)>& parse) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + what + " file '" + path + "'";
    return false;
  }
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty() || line[0] == '#') continue;
    if (!parse(line, path + ":" + std::to_string(line_no))) return false;
  }
  return true;
}

/// Reads an arrival trace: one "<time_us> <class-index>" pair per line.
bool read_arrivals(const std::string& path,
                   std::vector<hq::serve::Arrival>& out, std::string* error) {
  return read_lines(path, "arrivals", error, [&](const std::string& line,
                                                 const std::string& where) {
    std::istringstream ls(line);
    double time_us = 0;
    std::size_t klass = 0;
    if (!(ls >> time_us >> klass) || time_us < 0) {
      *error = "bad arrival at " + where + " (want '<time_us> <class-index>')";
      return false;
    }
    out.push_back({static_cast<hq::TimeNs>(time_us * 1000.0), klass});
    return true;
  });
}

/// Reads a device-spec file: one device per line as a preset name (k20,
/// fermi, single-copy) followed by optional 'key=value' overrides (name=,
/// smx=, queues=, copy-engines=).
bool read_device_specs(const std::string& path,
                       std::vector<hq::gpu::DeviceSpec>& out,
                       std::string* error) {
  const bool read = read_lines(path, "device-spec", error, [&](
                                   const std::string& line,
                                   const std::string& where) {
    std::istringstream ls(line);
    std::string preset;
    ls >> preset;
    const auto found = hq::tools::device_preset(preset);
    if (!found) {
      *error = "unknown device preset '" + preset + "' at " + where +
               " (want k20, fermi, or single-copy)";
      return false;
    }
    hq::gpu::DeviceSpec spec = *found;
    std::string token;
    while (ls >> token) {
      const std::size_t eq = token.find('=');
      const std::string key =
          eq == std::string::npos ? token : token.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : token.substr(eq + 1);
      int* count = key == "smx"            ? &spec.num_smx
                   : key == "queues"       ? &spec.num_work_queues
                   : key == "copy-engines" ? &spec.num_copy_engines
                                           : nullptr;
      errno = 0;
      char* end = nullptr;
      const long v = std::strtol(value.c_str(), &end, 10);
      if (key == "name" && !value.empty()) {
        spec.name = value;
      } else if (count != nullptr && !value.empty() && errno == 0 &&
                 *end == '\0' && v >= 1) {
        *count = static_cast<int>(v);
      } else {
        *error = "bad device override '" + token + "' at " + where;
        return false;
      }
    }
    out.push_back(std::move(spec));
    return true;
  });
  if (!read) return false;
  if (out.empty()) {
    *error = "device-spec file '" + path + "' declares no devices";
    return false;
  }
  return true;
}

/// Reads a per-device fault-plan file: one fault plan per line in the
/// `key=value,...` syntax of --fault-plan; "disabled" (or "none") gives
/// that device no faults. Line i configures device i, so the file must
/// declare exactly one line per fleet device.
bool read_fault_plans(const std::string& path,
                      std::vector<hq::fault::FaultPlan>& out,
                      std::string* error) {
  const bool read = read_lines(path, "device-fault-plan", error, [&](
                                   const std::string& line,
                                   const std::string& where) {
    std::string plan_error;
    const auto plan = hq::fault::parse_fault_plan(line, &plan_error);
    if (!plan) {
      *error = "bad fault plan at " + where + ": " + plan_error;
      return false;
    }
    out.push_back(*plan);
    return true;
  });
  if (!read) return false;
  if (out.empty()) {
    *error = "device-fault-plan file '" + path + "' declares no plans";
    return false;
  }
  return true;
}

/// Parses a duration literal "<number><ns|us|ms|s>" (e.g. "50ms", "250us")
/// into nanoseconds; nullopt on malformed input or under 1 ns.
std::optional<hq::DurationNs> parse_duration_ns(const std::string& text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [unit, ec] = std::from_chars(text.data(), end, value);
  for (const auto& [name, scale] : {std::pair{"ns", 1.0}, std::pair{"us", 1e3},
                                    std::pair{"ms", 1e6}, std::pair{"s", 1e9}}) {
    const double ns = value * scale;
    if (ec == std::errc() && std::string_view(unit, end) == name && ns >= 1.0 &&
        ns <= 9e18) {
      return static_cast<hq::DurationNs>(ns);
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hq;
  using tools::member;
  using tools::value;
  using F = fleet::FleetConfig;
  using S = serve::ServiceConfig;
  // Mode bits: the run kinds, then the switches and policies whose tuning
  // flags are read only with them.
  constexpr unsigned kSingle = 1, kFleet = 2, kCapSweep = 4, kFleetSweep = 8,
                     kHedge = 16, kSpotCheck = 32, kVerify = 64,
                     kJournal = 128, kBreaker = 256, kDeviceBreaker = 512;
  constexpr unsigned kFleets = kFleet | kFleetSweep;
  fleet::FleetConfig fc;
  serve::ServiceConfig& config = fc.base;
  std::string mix, arrivals, metrics, prom, trace, snapshot_file, spec_file,
      fault_plan_file, sdc_plan_file, journal;
  int size = 0, jobs = 1;
  std::size_t report = 0, devices = 0;
  std::optional<DurationNs> snapshot_interval;
  std::vector<std::size_t> caps, fleet_sizes, placements;
  bool resume = false;
  std::vector<std::string> placement_names = {"all"};
  for (const auto policy : fleet::all_placement_policies()) {
    placement_names.emplace_back(fleet::placement_policy_name(policy));
  }
  tools::FlagTable flags(
      {
          {"mix",
           "comma-separated application classes, each 'app' or "
           "'app:priority' (larger = more important)",
           "gaussian,needle", value(&mix)},
          {"size", "application problem-size override (0 = default)", "96",
           value(&size, {.min = 0})},
          {"window-ms", "admission window in milliseconds", "20",
           member<&F::base, &S::window>(fc, kMillisecond)},
          {"mean-gap-us", "mean Poisson inter-arrival time (us)", "500",
           member<&F::base, &S::mean_interarrival>(fc, kMicrosecond)},
          {"streams", "stream-pool size", "8",
           member<&F::base, &S::num_streams>(fc)},
          {"seed", "arrival-process seed", "1", member<&F::base, &S::seed>(fc)},
          {"memsync", "force the HtoD memory-sync (pseudo-burst) mutex",
           nullptr, member<&F::base, &S::memory_sync>(fc)},
          {"queue-cap", "bound on queued + inflight jobs (0 = unbounded)", "0",
           member<&F::base, &S::queue_cap>(fc), kSingle | kFleets},
          {"max-inflight",
           "bound on concurrently dispatched jobs (0 = unbounded)", "0",
           member<&F::base, &S::max_inflight>(fc)},
          {"shed-policy", "admission shed policy", "drop-tail",
           member<&F::base, &S::shed_policy>(fc)},
          {"deadline-us", "per-job relative deadline (0 = none)", "0",
           member<&F::base, &S::deadline>(fc, kMicrosecond)},
          {"expire-queued",
           "expire queued jobs whose deadline passed before dispatch", nullptr,
           member<&F::base, &S::expire_queued>(fc)},
          {"auto-memsync",
           "enable the hysteresis overload controller (switches into "
           "memory-sync mode under DMA contention)",
           nullptr,
           member<&F::base, &S::controller,
                  &serve::OverloadController::Config::enabled>(fc)},
          {"breaker", "enable per-class circuit breakers", nullptr,
           member<&F::base, &S::breaker_enabled>(fc)},
          {"breaker-threshold", "consecutive failures that trip a breaker",
           "3",
           member<&F::base, &S::breaker,
                  &fault::CircuitBreaker::Config::failure_threshold>(fc),
           kBreaker},
          {"breaker-cooldown-us",
           "open-state cooldown before the half-open probe (us)", "20000",
           member<&F::base, &S::breaker, &fault::CircuitBreaker::Config::cooldown>(
               fc, kMicrosecond),
           kBreaker},
          {"fault-plan", "deterministic fault plan (key=value,... ; see hqrun)",
           "", tools::Target{"a fault plan",
                             [&config](const std::string& text,
                                       std::string* why) {
                               if (text.empty()) return true;
                               const auto plan =
                                   fault::parse_fault_plan(text, why);
                               if (plan) config.fault_plan = *plan;
                               return plan.has_value();
                             }}},
          {"arrivals",
           "replay arrivals from this file instead of the Poisson process "
           "(lines: '<time_us> <class-index>')",
           "", value(&arrivals)},
          {"report", "report format on stdout", "text",
           tools::names(&report, {"text", "json"})},
          {"metrics", "write the metrics JSON report to this path", "",
           value(&metrics), kSingle | kFleet},
          {"prom", "write Prometheus text metrics to this path", "",
           value(&prom), kSingle | kFleet},
          {"trace", "write a Chrome-trace JSON to this path", "",
           value(&trace), kSingle | kFleet},
          {"snapshot-interval",
           "fleet mode: virtual-clock snapshot period as "
           "'<number><ns|us|ms|s>' (e.g. 50ms); pair with --snapshot-file",
           nullptr,
           tools::Target{"a duration '<number><ns|us|ms|s>' (e.g. 50ms)",
                         [&snapshot_interval](const std::string& text,
                                              std::string*) {
                           snapshot_interval = parse_duration_ns(text);
                           return snapshot_interval.has_value();
                         }},
           kFleet},
          {"snapshot-file",
           "fleet mode: append one JSON fleet snapshot per "
           "--snapshot-interval tick to this JSONL path",
           "", value(&snapshot_file), kFleet},
          {"sweep-cap",
           "run a queue-cap sweep over this comma-separated list (0 = "
           "unbounded) instead of a single run",
           nullptr, tools::list(&caps), kCapSweep},
          {"jobs",
           "worker threads for --sweep-cap / --sweep-fleet (0 = all hardware "
           "threads); output is identical at any job count",
           "1", value(&jobs, {.min = 0}), kCapSweep | kFleetSweep},
          {"devices",
           "fleet mode: shard the service across this many devices (0 = "
           "single-device mode)",
           "0", value(&devices), kSingle | kFleet},
          {"device-spec-file",
           "fleet mode with per-device specs from this file (lines: "
           "'k20|fermi|single-copy [name=.. smx=N queues=N copy-engines=N]')",
           "", value(&spec_file), kFleets},
          {"placement", "fleet placement policy", "round-robin",
           member<&F::placement>(fc), kFleet},
          {"copy-penalty", "copy-queue-depth weight of the copy-aware policy",
           "2", member<&F::copy_penalty>(fc), kFleets},
          {"steal",
           "fleet mode: idle devices steal the newest queued job from the "
           "deepest peer queue",
           nullptr, member<&F::work_stealing>(fc), kFleets},
          {"device-breaker",
           "fleet mode: per-device health breakers (tripped devices are "
           "quarantined and their queues rebalanced)",
           nullptr, member<&F::device_breaker_enabled>(fc), kFleets},
          {"device-breaker-threshold",
           "consecutive job failures that trip a device breaker", "3",
           member<&F::device_breaker,
                  &fault::CircuitBreaker::Config::failure_threshold>(fc),
           kDeviceBreaker},
          {"device-breaker-cooldown-us",
           "device-breaker open-state cooldown before the half-open probe "
           "(us)",
           "20000",
           member<&F::device_breaker, &fault::CircuitBreaker::Config::cooldown>(
               fc, kMicrosecond),
           kDeviceBreaker},
          {"device-fault-plan-file",
           "fleet mode: per-device fault plans, one --fault-plan line per "
           "device ('disabled' = fault-free); supports lifecycle faults "
           "(crash-at-us=, flap-period-us=, degrade-at-us=, ...)",
           "", value(&fault_plan_file), kFleet},
          {"failover-budget",
           "fleet mode: failover hops per job before it is shed as "
           "failover-exhausted",
           "3", member<&F::failover_budget>(fc), kFleets},
          {"hedge",
           "fleet mode: hedge straggling jobs on an idle healthy peer (first "
           "completion wins)",
           nullptr, member<&F::hedging>(fc), kFleets},
          {"hedge-threshold",
           "hedge once a job runs past this multiple of its class's mean "
           "service time",
           "2", member<&F::hedge_threshold>(fc), kHedge},
          {"hedge-min-samples",
           "completed jobs per class before hedging engages", "4",
           member<&F::hedge_min_samples>(fc), kHedge},
          {"sdc-plan-file",
           "fleet mode: per-device silent-data-corruption fault plans, one "
           "--fault-plan line per device ('disabled' = clean; "
           "sdc-copy-rate=, sdc-kernel-rate=, sdc-at-us=, sdc-stuck-at-us=); "
           "mutually exclusive with --device-fault-plan-file",
           "", value(&sdc_plan_file), kFleet},
          {"integrity", "fleet mode: completed-job integrity policy", "trust",
           member<&F::integrity>(fc), kFleets},
          {"spotcheck-rate",
           "fraction of completed jobs re-executed on a different device "
           "under --integrity spotcheck",
           "0.1", member<&F::spotcheck_rate>(fc), kSpotCheck},
          {"sdc-blocklist-threshold",
           "SDC score (EWMA of corruption-vote blame) at which a device is "
           "permanently blocklisted",
           "0.8", member<&F::sdc_blocklist_threshold>(fc), kVerify},
          {"sweep-fleet",
           "run a fleet-size x placement sweep over this comma-separated "
           "list of fleet sizes",
           nullptr, tools::list(&fleet_sizes, {.min = 1}), kFleetSweep},
          {"sweep-placement",
           "placement policies for --sweep-fleet: 'all' or a comma-separated "
           "subset",
           "all", tools::names(&placements, placement_names), kFleetSweep},
          {"journal",
           "crash-safe journal for --sweep-fleet (pair with --resume)", "",
           value(&journal), kFleetSweep},
          {"resume", "replay finished --sweep-fleet points from --journal",
           nullptr, value(&resume), kJournal},
      },
      {"a single-device run", "a fleet run", "a single-device cap sweep",
       "a fleet sweep", "--hedge", "--integrity spotcheck",
       "--integrity spotcheck or dmr", "--journal", "--breaker",
       "--device-breaker"});
  if (!flags.parse(argc, argv) || flags.help()) {
    return flags.usage_exit("hqserve");
  }
  const bool fleet_mode =
      devices > 0 || !spec_file.empty() || !fleet_sizes.empty();
  const unsigned run = fleet_mode ? (fleet_sizes.empty() ? kFleet : kFleetSweep)
                                  : (caps.empty() ? kSingle : kCapSweep);
  using fleet::IntegrityPolicy;
  if (!flags.check_modes(
          run | (fc.hedging ? kHedge : 0) |
          (fc.integrity == IntegrityPolicy::SpotCheck ? kSpotCheck : 0) |
          (fc.integrity != IntegrityPolicy::Trust ? kVerify : 0) |
          (journal.empty() ? 0 : kJournal) |
          (config.breaker_enabled ? kBreaker : 0) |
          (fc.device_breaker_enabled ? kDeviceBreaker : 0))) {
    return tools::usage_error(flags.error());
  }

  std::string error;
  for (const std::string& entry : split_csv(mix)) {
    if (!parse_class(entry, size, config, &error)) {
      return tools::usage_error(error);
    }
  }
  if (config.classes.empty()) {
    return tools::usage_error("--mix selected no applications");
  }
  if (!arrivals.empty() && !read_arrivals(arrivals, config.arrivals, &error)) {
    return tools::usage_error(error);
  }
  if (!fault_plan_file.empty() && !sdc_plan_file.empty()) {
    return tools::usage_error(
        "--sdc-plan-file and --device-fault-plan-file are mutually exclusive "
        "(put SDC keys in the device fault plans instead)");
  }
  if (snapshot_file.empty() == snapshot_interval.has_value()) {
    return tools::usage_error(
        "--snapshot-file and --snapshot-interval must be used together");
  }

  // Metric registries (and, in fleet mode, the lifecycle tracer and
  // fleet-scope metrics) exist only when an export asked for them; either
  // way the report bytes are identical (zero-perturbation).
  config.collect_metrics = !metrics.empty() || !prom.empty() ||
                           !trace.empty() || snapshot_interval.has_value();
  const bool json = report == 1;

  try {
    if (fleet_mode) {
      if (!spec_file.empty()) {
        if (!read_device_specs(spec_file, fc.devices, &error)) {
          return tools::usage_error(error);
        }
        if (devices > 0 && devices != fc.devices.size()) {
          return tools::usage_error(
              "--devices " + std::to_string(devices) + " disagrees with the " +
              std::to_string(fc.devices.size()) +
              " devices in --device-spec-file");
        }
      } else if (devices > 0) {
        fc.resize_homogeneous(devices);
      }
      // The two plan files are exclusive: at most one is set.
      const std::string& plan_file =
          fault_plan_file.empty() ? sdc_plan_file : fault_plan_file;
      if (!plan_file.empty()) {
        if (!read_fault_plans(plan_file, fc.device_fault_plans, &error)) {
          return tools::usage_error(error);
        }
        if (fc.device_fault_plans.size() != fc.num_devices()) {
          return tools::usage_error(
              std::string(fault_plan_file.empty() ? "--sdc-plan-file"
                                                  : "--device-fault-plan-file") +
              " declares " + std::to_string(fc.device_fault_plans.size()) +
              " plans for " + std::to_string(fc.num_devices()) + " devices");
        }
      }

      // --- fleet-size x placement sweep ------------------------------------
      if (!fleet_sizes.empty()) {
        fleet::FleetSweepGrid grid;
        grid.base = fc;
        grid.fleet_sizes = fleet_sizes;
        grid.placements.clear();
        const auto all = fleet::all_placement_policies();
        for (const std::size_t i : placements) {  // 0 is "all"
          if (i == 0) {
            grid.placements.insert(grid.placements.end(), all.begin(),
                                   all.end());
          } else {
            grid.placements.push_back(all[i - 1]);
          }
        }
        // A point listed twice would run twice.
        const auto repeats = [](const auto& v) {
          return std::set(v.begin(), v.end()).size() != v.size();
        };
        if (repeats(grid.fleet_sizes)) {
          return tools::usage_error("--sweep-fleet lists a fleet size twice");
        }
        if (repeats(grid.placements)) {
          return tools::usage_error("--sweep-placement lists a policy twice");
        }
        exec::GridOptions options;
        options.jobs = jobs;
        options.journal_path = journal;
        options.resume = resume;
        const auto outcomes = exec::run_grid<fleet::FleetSweep>(grid, options);
        if (json) {
          std::cout << "{\n  \"points\": [";
          for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const fleet::FleetSweepOutcome& o = outcomes[i];
            std::cout << (i == 0 ? "\n" : ",\n");
            std::cout << "    {\"index\": " << o.point.index
                      << ", \"fleet_size\": " << o.point.fleet_size
                      << ", \"placement\": \""
                      << fleet::placement_policy_name(o.point.placement)
                      << "\", \"arrived\": " << o.arrived
                      << ", \"completed_ok\": " << o.completed_ok
                      << ", \"completed\": " << o.completed
                      << ", \"shed\": " << o.shed
                      << ", \"requeued\": " << o.requeued
                      << ", \"stolen\": " << o.stolen
                      << ", \"goodput_per_sec\": "
                      << obs::format_double(o.goodput_per_sec)
                      << ", \"deadline_miss_ratio\": "
                      << obs::format_double(o.deadline_miss_ratio)
                      << ", \"energy_j\": " << obs::format_double(o.energy)
                      << ", \"report_digest\": \"0x" << std::hex
                      << o.report_digest << std::dec << "\"}";
          }
          std::cout << (outcomes.empty() ? "],\n" : "\n  ],\n");
          std::cout << "  \"combined_digest\": \"0x" << std::hex
                    << fleet::fleet_combined_digest(outcomes) << std::dec
                    << "\"\n}\n";
        } else {
          std::cout << fleet::render_fleet_sweep_report(outcomes);
        }
        return 0;
      }

      // --- single fleet run --------------------------------------------------
      const fleet::FleetResult result =
          fleet::FleetService(fc).run();
      if (json) {
        fleet::write_fleet_report_json(std::cout, result.report);
      } else {
        fleet::render_fleet_report_text(std::cout, result.report);
      }
      if (!metrics.empty()) {
        std::ofstream out(metrics);
        HQ_CHECK_MSG(out.good(), "cannot open --metrics path for writing");
        fleet::write_fleet_metrics_json(out, result);
      }
      if (!prom.empty()) {
        std::ofstream out(prom);
        HQ_CHECK_MSG(out.good(), "cannot open --prom path for writing");
        fleet::write_fleet_prometheus(out, result);
      }
      if (!trace.empty()) {
        std::ofstream out(trace);
        HQ_CHECK_MSG(out.good(), "cannot open --trace path for writing");
        fleet::write_fleet_chrome_trace(out, result);
      }
      if (snapshot_interval) {
        std::ofstream out(snapshot_file);
        HQ_CHECK_MSG(out.good(),
                     "cannot open --snapshot-file path for writing");
        fleet::write_fleet_snapshots_jsonl(out, result, *snapshot_interval);
      }
      return 0;
    }

    // --- queue-cap sweep ----------------------------------------------------
    if (!caps.empty()) {
      const int workers = jobs == 0 ? exec::ThreadPool::hardware_jobs() : jobs;
      // Points are keyed by submission index, so the sweep output is
      // byte-identical at any job count.
      const auto reports = exec::parallel_map_jobs(
          workers, caps.size(), [&config, &caps](std::size_t i) {
            serve::ServiceConfig point = config;
            point.queue_cap = caps[i];
            point.collect_metrics = false;
            return serve::Service(std::move(point)).run().report;
          });
      if (json) {
        std::cout << "[";
        for (std::size_t i = 0; i < reports.size(); ++i) {
          if (i > 0) std::cout << ",";
          std::cout << "\n";
          serve::write_report_json(std::cout, reports[i]);
        }
        std::cout << "\n]\n";
      } else {
        TextTable table;
        table.set_header({"cap", "arrived", "completed", "shed", "timed-out",
                          "goodput/s", "miss-ratio", "p95-turnaround-ms"});
        for (std::size_t i = 0; i < reports.size(); ++i) {
          const serve::ServeReport& r = reports[i];
          table.add_row(
              {caps[i] == 0 ? std::string("inf") : std::to_string(caps[i]),
               std::to_string(r.arrived), std::to_string(r.completed),
               std::to_string(r.shed()),
               std::to_string(r.timed_out_queued),
               format_fixed(r.goodput_per_sec, 1),
               format_fixed(r.deadline_miss_ratio, 3),
               format_fixed(static_cast<double>(r.p95_turnaround) / 1e6, 3)});
        }
        std::cout << table.render();
      }
      return 0;
    }

    // --- single run ---------------------------------------------------------
    const serve::ServeResult result = serve::Service(config).run();
    if (json) {
      serve::write_report_json(std::cout, result.report);
      std::cout << "\n";
    } else {
      serve::render_report_text(std::cout, result.report);
    }

    if (!metrics.empty() && result.metrics != nullptr) {
      obs::RunInfo info;
      info.workload = result.report.workload;
      info.num_apps = static_cast<int>(result.report.arrived);
      info.num_streams = config.num_streams;
      info.memory_sync = config.memory_sync;
      info.makespan = result.report.total_time;
      info.energy_j = result.report.energy;
      info.average_occupancy = result.report.average_occupancy;
      info.trace_digest = result.report.trace_digest;
      std::ofstream out(metrics);
      HQ_CHECK_MSG(out.good(), "cannot open --metrics path for writing");
      obs::write_metrics_json(out, info, *result.metrics, {});
    }
    if (!prom.empty() && result.metrics != nullptr) {
      std::ofstream out(prom);
      HQ_CHECK_MSG(out.good(), "cannot open --prom path for writing");
      obs::write_prometheus(out, *result.metrics);
    }
    if (!trace.empty() && result.trace != nullptr) {
      std::ofstream out(trace);
      HQ_CHECK_MSG(out.good(), "cannot open --trace path for writing");
      trace::write_chrome_trace(*result.trace, out);
    }
    return 0;
  } catch (const hq::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
