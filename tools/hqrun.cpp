// hqrun — command-line driver for simulated Hyper-Q experiments.
//
// Examples:
//   hqrun --apps gaussian,needle --na 32 --ns 32
//   hqrun --apps nn,srad --na 16 --ns 8 --order rev-rr --memsync
//   hqrun --apps gaussian,needle --na 8 --ns 8 --trace out.json --power-csv p.csv
//   hqrun --apps gaussian,needle --na 8 --ns 8 --metrics m.json --metrics-prom m.prom
//   hqrun --apps needle,srad --na 8 --ns 4 --device fermi
//   hqrun --apps gaussian,srad --na 32 --ns 32 --all-orders --jobs 0 --metrics sweep.json
//   hqrun --apps gaussian,needle --na 8 --ns 8 --fault-plan copy-stall-rate=0.05 --fault-seed 7
//   hqrun --apps gaussian,srad --na 16 --ns 16 --all-orders --journal sweep.journal --resume
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/table.hpp"
#include "fault/fault.hpp"
#include "exec/sweep.hpp"
#include "obs/report.hpp"
#include "hyperq/harness.hpp"
#include "hyperq/schedule.hpp"
#include "rodinia/registry.hpp"
#include "tools/cli.hpp"
#include "trace/ascii_timeline.hpp"
#include "trace/chrome_trace.hpp"

namespace {

std::optional<hq::fw::Order> parse_order(const std::string& name) {
  using hq::fw::Order;
  if (name == "fifo") return Order::NaiveFifo;
  if (name == "rr") return Order::RoundRobin;
  if (name == "shuffle") return Order::RandomShuffle;
  if (name == "rev-fifo") return Order::ReverseFifo;
  if (name == "rev-rr") return Order::ReverseRoundRobin;
  return std::nullopt;
}

int hqrun_main(int argc, char** argv) {
  using namespace hq;
  tools::ArgParser args;
  args.add_option("apps", "comma-separated application types (one or two)",
                  "gaussian,needle");
  args.add_option("na", "number of applications", "8");
  args.add_option("ns", "number of streams", "8");
  args.add_option("order", "launch order: fifo|rr|shuffle|rev-fifo|rev-rr",
                  "fifo");
  args.add_flag("memsync", "enable the HtoD memory-synchronization mutex");
  args.add_option("chunk", "split transfers into chunks of this many bytes",
                  "0");
  args.add_option("device", "device model: k20|fermi|single-copy", "k20");
  args.add_option("size", "application problem size override", "0");
  args.add_option("seed", "shuffle seed", "42");
  args.add_option("stagger-us", "child-thread launch stagger (us)", "100");
  args.add_option("trace",
                  "write a Chrome-trace JSON (spans + counter tracks) to "
                  "this path",
                  "");
  args.add_option("metrics",
                  "write the telemetry metrics JSON report to this path "
                  "(with --all-orders: the per-point sweep aggregate)",
                  "");
  args.add_option("metrics-prom",
                  "write the Prometheus text exposition to this path", "");
  args.add_option("power-csv", "write the power trace CSV to this path", "");
  args.add_flag("timeline", "print the ASCII execution timeline");
  args.add_flag("functional", "run real algorithm payloads and verify");
  args.add_flag("all-orders",
                "run the workload under all five launch orders and print a "
                "comparison table (one independent run per order)");
  args.add_option("jobs",
                  "worker threads for --all-orders (0 = all hardware "
                  "threads); output is identical at any job count",
                  "1");
  args.add_option("fault-plan",
                  "deterministic fault plan, key=value[,key=value...] or "
                  "'zero' (see EXPERIMENTS.md); same plan + seed reproduces "
                  "byte-identical runs",
                  "");
  args.add_option("fault-seed", "override the fault plan's seed", "0");
  args.add_option("watchdog-ms",
                  "quarantine apps still running this many ms into the "
                  "timed phase (0 = off; requires --fault-plan)",
                  "0");
  args.add_option("journal",
                  "crash-safe sweep checkpoint file (--all-orders only): "
                  "each finished point is appended and flushed",
                  "");
  args.add_flag("resume",
                "replay finished points from --journal and run only the "
                "missing ones (byte-identical to an uninterrupted run)");
  args.add_flag("help", "show this help");

  if (!args.parse(argc, argv) || args.get_flag("help")) {
    if (!args.error().empty()) std::fprintf(stderr, "error: %s\n", args.error().c_str());
    std::fprintf(stderr, "%s", args.usage("hqrun").c_str());
    return args.get_flag("help") ? 0 : 2;
  }

  const auto apps = tools::split_csv(args.get("apps"));
  if (apps.empty() || apps.size() > 2) {
    std::fprintf(stderr, "error: --apps needs one or two types\n");
    return 2;
  }
  for (const auto& app : apps) {
    if (!rodinia::is_app_name(app)) {
      std::fprintf(stderr, "error: unknown application '%s'\n", app.c_str());
      return 2;
    }
  }
  const auto order = parse_order(args.get("order"));
  if (!order) {
    std::fprintf(stderr,
                 "error: unknown order '%s' (valid: "
                 "fifo|rr|shuffle|rev-fifo|rev-rr)\n",
                 args.get("order").c_str());
    return 2;
  }
  const auto device = tools::device_preset(args.get("device"));
  if (!device) {
    std::fprintf(stderr,
                 "error: unknown device '%s' (valid: k20|fermi|single-copy)\n",
                 args.get("device").c_str());
    return 2;
  }
  const auto na = args.get_int("na");
  const auto ns = args.get_int("ns");
  if (!na || !ns || *na < 1 || *ns < 1) {
    std::fprintf(stderr, "error: --na/--ns must be positive integers\n");
    return 2;
  }

  fw::HarnessConfig config;
  config.device = *device;
  config.num_streams = static_cast<int>(*ns);
  config.memory_sync = args.get_flag("memsync");
  config.functional = args.get_flag("functional");
  config.transfer_chunk_bytes =
      static_cast<Bytes>(args.get_int("chunk").value_or(0));
  config.launch_stagger = static_cast<DurationNs>(
      args.get_int("stagger-us").value_or(100) * 1000);

  if (const std::string plan_text = args.get("fault-plan");
      !plan_text.empty()) {
    std::string plan_error;
    const auto plan = fault::parse_fault_plan(plan_text, &plan_error);
    if (!plan) {
      std::fprintf(stderr, "error: bad --fault-plan: %s\n",
                   plan_error.c_str());
      return 2;
    }
    config.fault_plan = *plan;
    if (args.provided("fault-seed")) {
      config.fault_plan.seed =
          static_cast<std::uint64_t>(args.get_int("fault-seed").value_or(0));
    }
    config.watchdog_timeout = static_cast<DurationNs>(
        args.get_int("watchdog-ms").value_or(0) * kMillisecond);
  } else if (args.provided("fault-seed") || args.provided("watchdog-ms")) {
    std::fprintf(stderr,
                 "error: --fault-seed/--watchdog-ms need a --fault-plan\n");
    return 2;
  }

  rodinia::AppParams params;
  if (const auto size = args.get_int("size"); size && *size > 0) {
    params.size = static_cast<int>(*size);
  }
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed").value_or(42));

  const std::string metrics_path = args.get("metrics");
  const std::string prom_path = args.get("metrics-prom");
  const std::string trace_path = args.get("trace");
  // Telemetry is passive (the schedule is bit-identical either way), so it
  // is enabled exactly when an export needs it.
  config.collect_telemetry =
      !metrics_path.empty() || !prom_path.empty() || !trace_path.empty();

  if (args.get_flag("all-orders")) {
    if (!prom_path.empty()) {
      std::fprintf(stderr,
                   "error: --metrics-prom is a single-run export; it cannot "
                   "be combined with --all-orders\n");
      return 2;
    }
    const auto jobs = args.get_int("jobs");
    if (!jobs || *jobs < 0) {
      std::fprintf(stderr, "error: bad --jobs\n");
      return 2;
    }
    exec::SweepGrid grid;
    grid.app_sets = {apps};
    grid.na = {static_cast<int>(*na)};
    grid.ns = {static_cast<int>(*ns)};
    grid.orders.assign(std::begin(fw::kAllOrders), std::end(fw::kAllOrders));
    grid.memory_sync = {config.memory_sync};
    grid.seeds = {seed};
    grid.base = config;
    grid.params = params;
    exec::SweepRunner::Options options;
    options.jobs = static_cast<int>(*jobs);
    options.journal_path = args.get("journal");
    options.resume = args.get_flag("resume");
    if (options.resume && options.journal_path.empty()) {
      std::fprintf(stderr, "error: --resume needs --journal\n");
      return 2;
    }
    const auto outcomes = exec::SweepRunner().run(grid, options);
    std::printf("%s", exec::render_report(outcomes).c_str());
    if (config.fault_plan.enabled) {
      std::uint64_t faults = 0;
      std::uint64_t quarantined = 0;
      for (const auto& o : outcomes) {
        faults += o.faults_injected;
        quarantined += o.quarantined_apps;
      }
      std::printf("faults injected: %llu  quarantined apps: %llu\n",
                  static_cast<unsigned long long>(faults),
                  static_cast<unsigned long long>(quarantined));
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      exec::write_sweep_metrics_json(out, outcomes);
      std::printf("wrote %s\n", metrics_path.c_str());
    }
    bool verified = true;
    for (const auto& o : outcomes) verified = verified && o.all_verified;
    return (config.functional && !verified) ? 1 : 0;
  }
  if (args.provided("journal") || args.get_flag("resume")) {
    std::fprintf(stderr,
                 "error: --journal/--resume only apply to --all-orders "
                 "sweeps\n");
    return 2;
  }

  Rng rng(seed);
  std::vector<int> counts;
  if (apps.size() == 2) {
    counts = {static_cast<int>(*na) / 2,
              static_cast<int>(*na) - static_cast<int>(*na) / 2};
  } else {
    counts = {static_cast<int>(*na)};
  }
  const auto schedule = fw::make_schedule(*order, counts, &rng);
  const auto workload = rodinia::build_workload(
      schedule, apps, std::vector<rodinia::AppParams>(apps.size(), params));

  fw::Harness harness(config);
  const auto result = harness.run(workload);

  TextTable summary;
  summary.set_header({"metric", "value"});
  summary.add_row({"workload", args.get("apps") + " x " + std::to_string(*na)});
  summary.add_row({"streams", std::to_string(*ns)});
  summary.add_row({"order", fw::order_name(*order)});
  summary.add_row({"makespan", format_duration(result.makespan)});
  summary.add_row({"energy", format_fixed(result.energy_exact, 3) + " J"});
  summary.add_row({"avg power", format_fixed(result.average_power, 1) + " W"});
  summary.add_row({"peak power", format_fixed(result.peak_power, 1) + " W"});
  summary.add_row({"avg occupancy", format_fixed(result.average_occupancy, 3)});
  summary.add_row(
      {"mean Le (HtoD)",
       format_duration(static_cast<DurationNs>(
           fw::mean_htod_effective_latency(result.apps)))});
  if (config.functional) {
    summary.add_row({"verified", result.all_verified ? "yes" : "NO"});
  }
  if (config.fault_plan.enabled) {
    const fault::FaultStats& fs = result.degraded.stats;
    summary.add_row({"faults injected", std::to_string(fs.total())});
    summary.add_row(
        {"quarantined", std::to_string(result.degraded.quarantined.size())});
  }
  std::printf("%s", summary.render().c_str());
  for (const auto& q : result.degraded.quarantined) {
    std::printf("quarantined app %d (%s): %s\n", q.app_id, q.type.c_str(),
                q.reason.c_str());
  }

  if (args.get_flag("timeline")) {
    trace::AsciiTimelineOptions opt;
    opt.width = 110;
    std::printf("\n%s", render_ascii_timeline(*result.trace, opt).c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    trace::write_chrome_trace(
        *result.trace,
        result.telemetry ? obs::counter_tracks(result.telemetry->registry())
                         : std::vector<trace::CounterTrack>{},
        out);
    std::printf("wrote %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const auto info = fw::telemetry_run_info(config, result, args.get("apps"),
                                             fw::order_name(*order));
    std::ofstream out(metrics_path);
    obs::write_metrics_json(out, info, result.telemetry->registry(),
                            fw::telemetry_app_reports(result));
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (!prom_path.empty()) {
    std::ofstream out(prom_path);
    obs::write_prometheus(out, result.telemetry->registry());
    std::printf("wrote %s\n", prom_path.c_str());
  }
  if (const std::string path = args.get("power-csv"); !path.empty()) {
    std::ofstream out(path);
    out << "t_ms,watts\n";
    for (const auto& sample : result.power_trace) {
      out << to_milliseconds(sample.time) << "," << sample.watts << "\n";
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return (config.functional && !result.all_verified) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Contract violations (empty workloads, malformed grids, journal/grid
  // mismatches) surface as hq::Error; report them as structured errors with
  // a non-zero exit instead of an unhandled-exception abort.
  try {
    return hqrun_main(argc, argv);
  } catch (const hq::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}
