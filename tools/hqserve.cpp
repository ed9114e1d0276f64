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
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
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

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parses one --mix entry of the form "app" or "app:priority".
bool parse_class(const std::string& entry, int size,
                 hq::serve::ServiceConfig& config, std::string* error) {
  std::string name = entry;
  int priority = 0;
  if (const auto colon = entry.find(':'); colon != std::string::npos) {
    name = entry.substr(0, colon);
    const std::string prio = entry.substr(colon + 1);
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(prio.c_str(), &end, 10);
    if (prio.empty() || errno != 0 || end == nullptr || *end != '\0') {
      *error = "bad priority in mix entry '" + entry + "'";
      return false;
    }
    priority = static_cast<int>(value);
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

/// Reads an arrival trace: one "<time_us> <class-index>" pair per line;
/// blank lines and lines starting with '#' are skipped.
bool read_arrivals(const std::string& path,
                   std::vector<hq::serve::Arrival>& out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open arrivals file '" + path + "'";
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    double time_us = 0;
    std::size_t klass = 0;
    if (!(ls >> time_us >> klass) || time_us < 0) {
      *error = "bad arrival at " + path + ":" + std::to_string(line_no) +
               " (want '<time_us> <class-index>')";
      return false;
    }
    out.push_back({static_cast<hq::TimeNs>(time_us * 1000.0), klass});
  }
  return true;
}

/// Reads a device-spec file: one device per line as a preset name (k20,
/// fermi, single-copy) followed by optional 'key=value' overrides (name=,
/// smx=, queues=, copy-engines=). Blank lines and '#' comments are skipped.
bool read_device_specs(const std::string& path,
                       std::vector<hq::gpu::DeviceSpec>& out,
                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open device-spec file '" + path + "'";
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string preset;
    ls >> preset;
    hq::gpu::DeviceSpec spec;
    if (preset == "k20") {
      spec = hq::gpu::DeviceSpec::tesla_k20();
    } else if (preset == "fermi") {
      spec = hq::gpu::DeviceSpec::fermi_single_queue();
    } else if (preset == "single-copy") {
      spec = hq::gpu::DeviceSpec::single_copy_engine();
    } else {
      *error = "unknown device preset '" + preset + "' at " + path + ":" +
               std::to_string(line_no) + " (want k20, fermi, or single-copy)";
      return false;
    }
    std::string token;
    while (ls >> token) {
      const std::size_t eq = token.find('=');
      const std::string key =
          eq == std::string::npos ? token : token.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : token.substr(eq + 1);
      const auto as_int = [&]() -> std::optional<int> {
        errno = 0;
        char* end = nullptr;
        const long v = std::strtol(value.c_str(), &end, 10);
        if (value.empty() || errno != 0 || end == nullptr || *end != '\0' ||
            v < 1) {
          return std::nullopt;
        }
        return static_cast<int>(v);
      };
      bool ok = true;
      if (key == "name") {
        ok = !value.empty();
        if (ok) spec.name = value;
      } else if (key == "smx") {
        const auto v = as_int();
        ok = v.has_value();
        if (ok) spec.num_smx = *v;
      } else if (key == "queues") {
        const auto v = as_int();
        ok = v.has_value();
        if (ok) spec.num_work_queues = *v;
      } else if (key == "copy-engines") {
        const auto v = as_int();
        ok = v.has_value();
        if (ok) spec.num_copy_engines = *v;
      } else {
        ok = false;
      }
      if (!ok) {
        *error = "bad device override '" + token + "' at " + path + ":" +
                 std::to_string(line_no);
        return false;
      }
    }
    out.push_back(std::move(spec));
  }
  if (out.empty()) {
    *error = "device-spec file '" + path + "' declares no devices";
    return false;
  }
  return true;
}

/// Reads a per-device fault-plan file: one fault plan per line in the
/// `key=value,...` syntax of --fault-plan; "disabled" (or "none") gives
/// that device no faults. Blank lines and '#' comments are skipped. Line i
/// configures device i, so the file must declare exactly one line per
/// fleet device.
bool read_fault_plans(const std::string& path,
                      std::vector<hq::fault::FaultPlan>& out,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open device-fault-plan file '" + path + "'";
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::string plan_error;
    const auto plan = hq::fault::parse_fault_plan(line, &plan_error);
    if (!plan) {
      *error = "bad fault plan at " + path + ":" + std::to_string(line_no) +
               ": " + plan_error;
      return false;
    }
    out.push_back(*plan);
  }
  if (out.empty()) {
    *error = "device-fault-plan file '" + path + "' declares no plans";
    return false;
  }
  return true;
}

/// Parses a duration literal "<number><ns|us|ms|s>" (e.g. "50ms", "250us")
/// into nanoseconds. Returns nullopt on malformed input or a non-positive
/// value.
std::optional<hq::DurationNs> parse_duration_ns(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || end == nullptr || end == text.c_str() ||
      value <= 0.0) {
    return std::nullopt;
  }
  const std::string unit(end);
  double scale = 0.0;
  if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else {
    return std::nullopt;
  }
  const double ns = value * scale;
  if (ns < 1.0 || ns > 9e18) return std::nullopt;
  return static_cast<hq::DurationNs>(ns);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hq;
  tools::ArgParser args;
  args.add_option("mix",
                  "comma-separated application classes, each 'app' or "
                  "'app:priority' (larger = more important)",
                  "gaussian,needle");
  args.add_option("size", "application problem-size override (0 = default)",
                  "96");
  args.add_option("window-ms", "admission window in milliseconds", "20");
  args.add_option("mean-gap-us", "mean Poisson inter-arrival time (us)", "500");
  args.add_option("streams", "stream-pool size", "8");
  args.add_option("seed", "arrival-process seed", "1");
  args.add_flag("memsync", "force the HtoD memory-sync (pseudo-burst) mutex");
  args.add_option("queue-cap",
                  "bound on queued + inflight jobs (0 = unbounded)", "0");
  args.add_option("max-inflight",
                  "bound on concurrently dispatched jobs (0 = unbounded)",
                  "0");
  args.add_option("shed-policy",
                  "admission shed policy: drop-tail|deadline|priority",
                  "drop-tail");
  args.add_option("deadline-us", "per-job relative deadline (0 = none)", "0");
  args.add_flag("expire-queued",
                "expire queued jobs whose deadline passed before dispatch");
  args.add_flag("auto-memsync",
                "enable the hysteresis overload controller (switches into "
                "memory-sync mode under DMA contention)");
  args.add_flag("breaker", "enable per-class circuit breakers");
  args.add_option("breaker-threshold",
                  "consecutive failures that trip a breaker", "3");
  args.add_option("breaker-cooldown-us",
                  "open-state cooldown before the half-open probe (us)",
                  "20000");
  args.add_option("fault-plan",
                  "deterministic fault plan (key=value,... ; see hqrun)", "");
  args.add_option("arrivals",
                  "replay arrivals from this file instead of the Poisson "
                  "process (lines: '<time_us> <class-index>')",
                  "");
  args.add_option("report", "report format on stdout: text|json", "text");
  args.add_option("metrics", "write the metrics JSON report to this path", "");
  args.add_option("prom", "write Prometheus text metrics to this path", "");
  args.add_option("trace", "write a Chrome-trace JSON to this path", "");
  args.add_option("snapshot-interval",
                  "fleet mode: virtual-clock snapshot period as "
                  "'<number><ns|us|ms|s>' (e.g. 50ms); pair with "
                  "--snapshot-file",
                  "");
  args.add_option("snapshot-file",
                  "fleet mode: append one JSON fleet snapshot per "
                  "--snapshot-interval tick to this JSONL path",
                  "");
  args.add_option("sweep-cap",
                  "run a queue-cap sweep over this comma-separated list "
                  "(0 = unbounded) instead of a single run",
                  "");
  args.add_option("jobs",
                  "worker threads for --sweep-cap / --sweep-fleet (0 = all "
                  "hardware threads); output is identical at any job count",
                  "1");
  args.add_option("devices",
                  "fleet mode: shard the service across this many devices "
                  "(0 = single-device mode)",
                  "0");
  args.add_option("device-spec-file",
                  "fleet mode with per-device specs from this file (lines: "
                  "'k20|fermi|single-copy [name=.. smx=N queues=N "
                  "copy-engines=N]')",
                  "");
  args.add_option("placement",
                  "fleet placement policy: round-robin|least-loaded|"
                  "copy-aware|class-affinity",
                  "round-robin");
  args.add_option("copy-penalty",
                  "copy-queue-depth weight of the copy-aware policy", "2");
  args.add_flag("steal",
                "fleet mode: idle devices steal the newest queued job from "
                "the deepest peer queue");
  args.add_flag("device-breaker",
                "fleet mode: per-device health breakers (tripped devices "
                "are quarantined and their queues rebalanced)");
  args.add_option("device-breaker-threshold",
                  "consecutive job failures that trip a device breaker", "3");
  args.add_option("device-breaker-cooldown-us",
                  "device-breaker open-state cooldown before the half-open "
                  "probe (us)",
                  "20000");
  args.add_option("device-fault-plan-file",
                  "fleet mode: per-device fault plans, one --fault-plan "
                  "line per device ('disabled' = fault-free); supports "
                  "lifecycle faults (crash-at-us=, flap-period-us=, "
                  "degrade-at-us=, ...)",
                  "");
  args.add_option("failover-budget",
                  "fleet mode: failover hops per job before it is shed as "
                  "failover-exhausted",
                  "3");
  args.add_flag("hedge",
                "fleet mode: hedge straggling jobs on an idle healthy peer "
                "(first completion wins)");
  args.add_option("hedge-threshold",
                  "hedge once a job runs past this multiple of its class's "
                  "mean service time",
                  "2");
  args.add_option("hedge-min-samples",
                  "completed jobs per class before hedging engages", "4");
  args.add_option("sdc-plan-file",
                  "fleet mode: per-device silent-data-corruption fault "
                  "plans, one --fault-plan line per device ('disabled' = "
                  "clean; sdc-copy-rate=, sdc-kernel-rate=, sdc-at-us=, "
                  "sdc-stuck-at-us=); mutually exclusive with "
                  "--device-fault-plan-file",
                  "");
  args.add_option("integrity",
                  "fleet mode: completed-job integrity policy: "
                  "trust|spotcheck|dmr",
                  "trust");
  args.add_option("spotcheck-rate",
                  "fraction of completed jobs re-executed on a different "
                  "device under --integrity spotcheck",
                  "0.1");
  args.add_option("sdc-blocklist-threshold",
                  "SDC score (EWMA of corruption-vote blame) at which a "
                  "device is permanently blocklisted",
                  "0.8");
  args.add_option("sweep-fleet",
                  "run a fleet-size x placement sweep over this "
                  "comma-separated list of fleet sizes",
                  "");
  args.add_option("sweep-placement",
                  "placement policies for --sweep-fleet: 'all' or a "
                  "comma-separated subset",
                  "all");
  args.add_option("journal",
                  "crash-safe journal for --sweep-fleet (pair with --resume)",
                  "");
  args.add_flag("resume",
                "replay finished --sweep-fleet points from --journal");
  args.add_flag("help", "show this help");

  if (!args.parse(argc, argv) || args.get_flag("help")) {
    if (!args.error().empty()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    std::fprintf(stderr, "%s", args.usage("hqserve").c_str());
    return args.get_flag("help") ? 0 : 2;
  }

  const auto size = args.get_int("size");
  const auto window_ms = args.get_int("window-ms");
  const auto gap_us = args.get_int("mean-gap-us");
  const auto streams = args.get_int("streams");
  const auto seed = args.get_int("seed");
  const auto queue_cap = args.get_int("queue-cap");
  const auto max_inflight = args.get_int("max-inflight");
  const auto deadline_us = args.get_int("deadline-us");
  const auto breaker_threshold = args.get_int("breaker-threshold");
  const auto breaker_cooldown_us = args.get_int("breaker-cooldown-us");
  const auto jobs = args.get_int("jobs");
  const auto devices = args.get_int("devices");
  const auto device_breaker_threshold =
      args.get_int("device-breaker-threshold");
  const auto device_breaker_cooldown_us =
      args.get_int("device-breaker-cooldown-us");
  const auto failover_budget = args.get_int("failover-budget");
  const auto hedge_min_samples = args.get_int("hedge-min-samples");
  if (!size || *size < 0 || !window_ms || *window_ms < 1 || !gap_us ||
      *gap_us < 1 || !streams || *streams < 1 || !seed || *seed < 0 ||
      !queue_cap || *queue_cap < 0 || !max_inflight || *max_inflight < 0 ||
      !deadline_us || *deadline_us < 0 || !breaker_threshold ||
      *breaker_threshold < 1 || !breaker_cooldown_us ||
      *breaker_cooldown_us < 1 || !jobs || *jobs < 0 || !devices ||
      *devices < 0 || !device_breaker_threshold ||
      *device_breaker_threshold < 1 || !device_breaker_cooldown_us ||
      *device_breaker_cooldown_us < 1 || !failover_budget ||
      *failover_budget < 0 || !hedge_min_samples || *hedge_min_samples < 1) {
    std::fprintf(stderr, "error: bad numeric option\n");
    return 2;
  }

  double hedge_threshold = 2.0;
  {
    errno = 0;
    char* end = nullptr;
    const std::string text = args.get("hedge-threshold");
    hedge_threshold = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' ||
        hedge_threshold <= 0.0) {
      std::fprintf(stderr, "error: --hedge-threshold needs a number > 0\n");
      return 2;
    }
  }

  double copy_penalty = 2.0;
  {
    errno = 0;
    char* end = nullptr;
    const std::string text = args.get("copy-penalty");
    copy_penalty = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || copy_penalty < 0.0) {
      std::fprintf(stderr, "error: --copy-penalty needs a number >= 0\n");
      return 2;
    }
  }

  double spotcheck_rate = 0.1;
  {
    errno = 0;
    char* end = nullptr;
    const std::string text = args.get("spotcheck-rate");
    spotcheck_rate = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || spotcheck_rate < 0.0 ||
        spotcheck_rate > 1.0) {
      std::fprintf(stderr,
                   "error: --spotcheck-rate needs a number in [0, 1]\n");
      return 2;
    }
  }

  double sdc_blocklist_threshold = 0.8;
  {
    errno = 0;
    char* end = nullptr;
    const std::string text = args.get("sdc-blocklist-threshold");
    sdc_blocklist_threshold = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' ||
        sdc_blocklist_threshold <= 0.0 || sdc_blocklist_threshold > 1.0) {
      std::fprintf(stderr,
                   "error: --sdc-blocklist-threshold needs a number in "
                   "(0, 1]\n");
      return 2;
    }
  }

  fleet::IntegrityPolicy integrity = fleet::IntegrityPolicy::Trust;
  {
    const std::string text = args.get("integrity");
    if (text == "trust") {
      integrity = fleet::IntegrityPolicy::Trust;
    } else if (text == "spotcheck") {
      integrity = fleet::IntegrityPolicy::SpotCheck;
    } else if (text == "dmr") {
      integrity = fleet::IntegrityPolicy::Dmr;
    } else {
      std::fprintf(stderr,
                   "error: --integrity must be trust, spotcheck, or dmr\n");
      return 2;
    }
  }

  const std::string report_format = args.get("report");
  if (report_format != "text" && report_format != "json") {
    std::fprintf(stderr, "error: --report must be text or json\n");
    return 2;
  }

  serve::ServiceConfig config;
  config.window = static_cast<DurationNs>(*window_ms) * kMillisecond;
  config.mean_interarrival = static_cast<DurationNs>(*gap_us) * kMicrosecond;
  config.num_streams = static_cast<int>(*streams);
  config.seed = static_cast<std::uint64_t>(*seed);
  config.memory_sync = args.get_flag("memsync");
  config.queue_cap = static_cast<std::size_t>(*queue_cap);
  config.max_inflight = static_cast<std::size_t>(*max_inflight);
  config.deadline = static_cast<DurationNs>(*deadline_us) * kMicrosecond;
  config.expire_queued = args.get_flag("expire-queued");
  config.controller.enabled = args.get_flag("auto-memsync");
  config.breaker_enabled = args.get_flag("breaker");
  config.breaker.failure_threshold = static_cast<int>(*breaker_threshold);
  config.breaker.cooldown =
      static_cast<DurationNs>(*breaker_cooldown_us) * kMicrosecond;

  const auto policy = serve::parse_shed_policy(args.get("shed-policy"));
  if (!policy) {
    std::fprintf(stderr,
                 "error: --shed-policy must be drop-tail, deadline, or "
                 "priority\n");
    return 2;
  }
  config.shed_policy = *policy;

  std::string error;
  for (const std::string& entry : split_csv(args.get("mix"))) {
    if (!parse_class(entry, static_cast<int>(*size), config, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }
  if (config.classes.empty()) {
    std::fprintf(stderr, "error: --mix selected no applications\n");
    return 2;
  }

  if (!args.get("fault-plan").empty()) {
    std::string plan_error;
    const auto plan = fault::parse_fault_plan(args.get("fault-plan"),
                                              &plan_error);
    if (!plan) {
      std::fprintf(stderr, "error: bad --fault-plan: %s\n",
                   plan_error.c_str());
      return 2;
    }
    config.fault_plan = *plan;
  }

  if (!args.get("arrivals").empty()) {
    if (!read_arrivals(args.get("arrivals"), config.arrivals, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }

  const bool fleet_mode = *devices > 0 ||
                          !args.get("device-spec-file").empty() ||
                          !args.get("sweep-fleet").empty();

  if (!args.get("device-fault-plan-file").empty()) {
    if (!fleet_mode) {
      std::fprintf(stderr,
                   "error: --device-fault-plan-file needs fleet mode "
                   "(--devices or --device-spec-file)\n");
      return 2;
    }
    if (!args.get("sweep-fleet").empty()) {
      std::fprintf(stderr,
                   "error: --device-fault-plan-file fixes one plan per "
                   "device; it does not apply to --sweep-fleet's varying "
                   "fleet sizes\n");
      return 2;
    }
  }
  if (args.get_flag("hedge") && !fleet_mode) {
    std::fprintf(stderr, "error: --hedge needs fleet mode (--devices or "
                         "--device-spec-file)\n");
    return 2;
  }

  // Integrity-pipeline combinations: verification re-executes jobs on a
  // *different* device, so every knob is fleet-only, and spot-check tuning
  // without the spot-check policy is a configuration mistake, not a no-op.
  if (integrity != fleet::IntegrityPolicy::Trust && !fleet_mode) {
    std::fprintf(stderr,
                 "error: --integrity %s needs fleet mode (--devices or "
                 "--device-spec-file)\n",
                 args.get("integrity").c_str());
    return 2;
  }
  if (args.provided("spotcheck-rate") &&
      integrity != fleet::IntegrityPolicy::SpotCheck) {
    std::fprintf(stderr,
                 "error: --spotcheck-rate only applies with --integrity "
                 "spotcheck\n");
    return 2;
  }
  if (args.provided("sdc-blocklist-threshold") &&
      integrity == fleet::IntegrityPolicy::Trust) {
    std::fprintf(stderr,
                 "error: --sdc-blocklist-threshold only applies with "
                 "--integrity spotcheck or dmr (trust never blames a "
                 "device)\n");
    return 2;
  }
  if (!args.get("sdc-plan-file").empty()) {
    if (!fleet_mode) {
      std::fprintf(stderr,
                   "error: --sdc-plan-file needs fleet mode (--devices or "
                   "--device-spec-file)\n");
      return 2;
    }
    if (!args.get("sweep-fleet").empty()) {
      std::fprintf(stderr,
                   "error: --sdc-plan-file fixes one plan per device; it "
                   "does not apply to --sweep-fleet's varying fleet sizes\n");
      return 2;
    }
    if (!args.get("device-fault-plan-file").empty()) {
      std::fprintf(stderr,
                   "error: --sdc-plan-file and --device-fault-plan-file are "
                   "mutually exclusive (put SDC keys in the device fault "
                   "plans instead)\n");
      return 2;
    }
  }

  // Export-flag validation up front: every unsupported combination is a
  // hard usage error, never a silent no-op.
  const bool want_metrics = !args.get("metrics").empty();
  const bool want_prom = !args.get("prom").empty();
  const bool want_trace = !args.get("trace").empty();
  const bool want_snapshots = !args.get("snapshot-file").empty() ||
                              !args.get("snapshot-interval").empty();
  const bool want_exports =
      want_metrics || want_prom || want_trace || want_snapshots;
  std::optional<DurationNs> snapshot_interval;
  if (want_snapshots) {
    if (args.get("snapshot-file").empty() ||
        args.get("snapshot-interval").empty()) {
      std::fprintf(stderr,
                   "error: --snapshot-file and --snapshot-interval must be "
                   "used together\n");
      return 2;
    }
    if (!fleet_mode) {
      std::fprintf(stderr,
                   "error: fleet snapshots need fleet mode (--devices or "
                   "--device-spec-file)\n");
      return 2;
    }
    snapshot_interval = parse_duration_ns(args.get("snapshot-interval"));
    if (!snapshot_interval) {
      std::fprintf(stderr,
                   "error: --snapshot-interval wants '<number><ns|us|ms|s>' "
                   "(e.g. 50ms), got '%s'\n",
                   args.get("snapshot-interval").c_str());
      return 2;
    }
  }
  if (want_exports && !args.get("sweep-fleet").empty()) {
    std::fprintf(stderr,
                 "error: --metrics/--prom/--trace/--snapshot-* are "
                 "per-run exports; they do not apply to --sweep-fleet\n");
    return 2;
  }
  if (want_exports && !args.get("sweep-cap").empty()) {
    std::fprintf(stderr,
                 "error: --metrics/--prom/--trace/--snapshot-* are "
                 "per-run exports; they do not apply to --sweep-cap\n");
    return 2;
  }

  // Metric registries (and, in fleet mode, the lifecycle tracer and
  // fleet-scope metrics) exist only when an export asked for them; either
  // way the report bytes are identical (zero-perturbation).
  config.collect_metrics = want_exports;

  try {
    if (fleet_mode) {
      fleet::FleetConfig fleet_config;
      fleet_config.base = config;
      if (!args.get("device-spec-file").empty()) {
        if (!read_device_specs(args.get("device-spec-file"),
                               fleet_config.devices, &error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          return 2;
        }
        if (*devices > 0 &&
            static_cast<std::size_t>(*devices) != fleet_config.devices.size()) {
          std::fprintf(stderr,
                       "error: --devices %d disagrees with the %zu devices in "
                       "--device-spec-file\n",
                       static_cast<int>(*devices), fleet_config.devices.size());
          return 2;
        }
      } else if (*devices > 0) {
        fleet_config.resize_homogeneous(static_cast<std::size_t>(*devices));
      }
      const auto placement =
          fleet::parse_placement_policy(args.get("placement"));
      if (!placement) {
        std::fprintf(stderr,
                     "error: --placement must be round-robin, least-loaded, "
                     "copy-aware, or class-affinity\n");
        return 2;
      }
      fleet_config.placement = *placement;
      fleet_config.copy_penalty = copy_penalty;
      fleet_config.work_stealing = args.get_flag("steal");
      fleet_config.device_breaker_enabled = args.get_flag("device-breaker");
      fleet_config.device_breaker.failure_threshold =
          static_cast<int>(*device_breaker_threshold);
      fleet_config.device_breaker.cooldown =
          static_cast<DurationNs>(*device_breaker_cooldown_us) * kMicrosecond;
      fleet_config.failover_budget = static_cast<int>(*failover_budget);
      fleet_config.hedging = args.get_flag("hedge");
      fleet_config.hedge_threshold = hedge_threshold;
      fleet_config.hedge_min_samples =
          static_cast<std::size_t>(*hedge_min_samples);
      fleet_config.integrity = integrity;
      fleet_config.spotcheck_rate = spotcheck_rate;
      fleet_config.sdc_blocklist_threshold = sdc_blocklist_threshold;
      if (!args.get("device-fault-plan-file").empty()) {
        if (!read_fault_plans(args.get("device-fault-plan-file"),
                              fleet_config.device_fault_plans, &error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          return 2;
        }
        if (fleet_config.device_fault_plans.size() !=
            fleet_config.num_devices()) {
          std::fprintf(stderr,
                       "error: --device-fault-plan-file declares %zu plans "
                       "for %zu devices\n",
                       fleet_config.device_fault_plans.size(),
                       fleet_config.num_devices());
          return 2;
        }
      }
      if (!args.get("sdc-plan-file").empty()) {
        if (!read_fault_plans(args.get("sdc-plan-file"),
                              fleet_config.device_fault_plans, &error)) {
          std::fprintf(stderr, "error: %s\n", error.c_str());
          return 2;
        }
        if (fleet_config.device_fault_plans.size() !=
            fleet_config.num_devices()) {
          std::fprintf(stderr,
                       "error: --sdc-plan-file declares %zu plans for %zu "
                       "devices\n",
                       fleet_config.device_fault_plans.size(),
                       fleet_config.num_devices());
          return 2;
        }
      }

      // --- fleet-size x placement sweep ------------------------------------
      if (!args.get("sweep-fleet").empty()) {
        fleet::FleetSweepGrid grid;
        grid.base = fleet_config;
        grid.fleet_sizes.clear();
        for (const std::string& n : split_csv(args.get("sweep-fleet"))) {
          errno = 0;
          char* end = nullptr;
          const unsigned long long value = std::strtoull(n.c_str(), &end, 10);
          if (errno != 0 || end == nullptr || *end != '\0' || value < 1) {
            std::fprintf(stderr, "error: bad --sweep-fleet entry '%s'\n",
                         n.c_str());
            return 2;
          }
          grid.fleet_sizes.push_back(static_cast<std::size_t>(value));
        }
        grid.placements.clear();
        if (args.get("sweep-placement") == "all") {
          const auto& all = fleet::all_placement_policies();
          grid.placements.assign(all.begin(), all.end());
        } else {
          for (const std::string& p : split_csv(args.get("sweep-placement"))) {
            const auto parsed = fleet::parse_placement_policy(p);
            if (!parsed) {
              std::fprintf(stderr, "error: bad --sweep-placement entry '%s'\n",
                           p.c_str());
              return 2;
            }
            grid.placements.push_back(*parsed);
          }
        }
        exec::GridOptions options;
        options.jobs = static_cast<int>(*jobs);
        options.journal_path = args.get("journal");
        options.resume = args.get_flag("resume");
        const auto outcomes = exec::run_grid<fleet::FleetSweep>(grid, options);
        if (report_format == "json") {
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
          fleet::FleetService(fleet_config).run();
      if (report_format == "json") {
        fleet::write_fleet_report_json(std::cout, result.report);
      } else {
        fleet::render_fleet_report_text(std::cout, result.report);
      }
      if (want_metrics) {
        std::ofstream out(args.get("metrics"));
        HQ_CHECK_MSG(out.good(), "cannot open --metrics path for writing");
        fleet::write_fleet_metrics_json(out, result);
      }
      if (want_prom) {
        std::ofstream out(args.get("prom"));
        HQ_CHECK_MSG(out.good(), "cannot open --prom path for writing");
        fleet::write_fleet_prometheus(out, result);
      }
      if (want_trace) {
        std::ofstream out(args.get("trace"));
        HQ_CHECK_MSG(out.good(), "cannot open --trace path for writing");
        fleet::write_fleet_chrome_trace(out, result);
      }
      if (want_snapshots) {
        std::ofstream out(args.get("snapshot-file"));
        HQ_CHECK_MSG(out.good(),
                     "cannot open --snapshot-file path for writing");
        fleet::write_fleet_snapshots_jsonl(out, result, *snapshot_interval);
      }
      return 0;
    }

    // --- queue-cap sweep ----------------------------------------------------
    if (!args.get("sweep-cap").empty()) {
      std::vector<std::size_t> caps;
      for (const std::string& cap : split_csv(args.get("sweep-cap"))) {
        errno = 0;
        char* end = nullptr;
        const unsigned long long value = std::strtoull(cap.c_str(), &end, 10);
        if (errno != 0 || end == nullptr || *end != '\0') {
          std::fprintf(stderr, "error: bad --sweep-cap entry '%s'\n",
                       cap.c_str());
          return 2;
        }
        caps.push_back(static_cast<std::size_t>(value));
      }
      const int workers =
          *jobs == 0 ? exec::ThreadPool::hardware_jobs()
                     : static_cast<int>(*jobs);
      // Points are keyed by submission index, so the sweep output is
      // byte-identical at any job count.
      const auto reports = exec::parallel_map_jobs(
          workers, caps.size(), [&config, &caps](std::size_t i) {
            serve::ServiceConfig point = config;
            point.queue_cap = caps[i];
            point.collect_metrics = false;
            return serve::Service(std::move(point)).run().report;
          });
      if (report_format == "json") {
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
               std::to_string(r.shed_queue_full + r.shed_breaker),
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
    if (report_format == "json") {
      serve::write_report_json(std::cout, result.report);
      std::cout << "\n";
    } else {
      serve::render_report_text(std::cout, result.report);
    }

    if (!args.get("metrics").empty() && result.metrics != nullptr) {
      obs::RunInfo info;
      info.workload = result.report.workload;
      info.num_apps = static_cast<int>(result.report.arrived);
      info.num_streams = config.num_streams;
      info.memory_sync = config.memory_sync;
      info.makespan = result.report.total_time;
      info.energy_j = result.report.energy;
      info.average_occupancy = result.report.average_occupancy;
      info.trace_digest = result.report.trace_digest;
      std::ofstream out(args.get("metrics"));
      HQ_CHECK_MSG(out.good(), "cannot open --metrics path for writing");
      obs::write_metrics_json(out, info, *result.metrics, {});
    }
    if (!args.get("prom").empty() && result.metrics != nullptr) {
      std::ofstream out(args.get("prom"));
      HQ_CHECK_MSG(out.good(), "cannot open --prom path for writing");
      obs::write_prometheus(out, *result.metrics);
    }
    if (!args.get("trace").empty() && result.trace != nullptr) {
      std::ofstream out(args.get("trace"));
      HQ_CHECK_MSG(out.good(), "cannot open --trace path for writing");
      trace::write_chrome_trace(*result.trace, out);
    }
    return 0;
  } catch (const hq::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
