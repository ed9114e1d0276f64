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

// The modes a flag can be read in (FlagTable bits).
constexpr unsigned kSingle = 1, kSweep = 2, kFault = 4, kJournal = 8;

int hqrun_main(int argc, char** argv) {
  using namespace hq;
  using tools::member;
  using tools::value;
  fw::HarnessConfig config;
  std::vector<std::size_t> app_types;
  int na = 0;
  std::size_t order = 0;
  int size = 0;
  std::uint64_t seed = 0;
  std::string trace_path, metrics_path, prom_path, power_path, journal;
  bool timeline = false, all_orders = false, resume = false;
  int jobs = 1;
  using H = fw::HarnessConfig;
  tools::FlagTable flags(
      {
          {"apps", "comma-separated application types (one or two)",
           "gaussian,needle", tools::names(&app_types, rodinia::app_names())},
          {"na", "number of applications", "8", value(&na, {.min = 1})},
          {"ns", "number of streams", "8", member<&H::num_streams>(config)},
          {"order", "launch order", "fifo",
           tools::names(&order, {"fifo", "rr", "shuffle", "rev-fifo",
                                 "rev-rr"}),
           kSingle},
          {"memsync", "enable the HtoD memory-synchronization mutex", nullptr,
           member<&H::memory_sync>(config)},
          {"chunk", "split transfers into chunks of this many bytes", "0",
           member<&H::transfer_chunk_bytes>(config)},
          {"device", "device model: k20|fermi|single-copy", "k20",
           tools::Target{"one of k20|fermi|single-copy",
                         [&config](const std::string& name, std::string*) {
                           const auto spec = tools::device_preset(name);
                           if (spec) config.device = *spec;
                           return spec.has_value();
                         }}},
          {"size", "application problem size override (0 = default)", "0",
           value(&size, {.min = 0})},
          {"seed", "shuffle seed", "42", value(&seed)},
          {"stagger-us", "child-thread launch stagger (us)", "100",
           member<&H::launch_stagger>(config, kMicrosecond)},
          {"trace",
           "write a Chrome-trace JSON (spans + counter tracks) to this path",
           "", value(&trace_path), kSingle},
          {"metrics",
           "write the telemetry metrics JSON report to this path (with "
           "--all-orders: the per-point sweep aggregate)",
           "", value(&metrics_path)},
          {"metrics-prom", "write the Prometheus text exposition to this path",
           "", value(&prom_path), kSingle},
          {"power-csv", "write the power trace CSV to this path", "",
           value(&power_path), kSingle},
          {"timeline", "print the ASCII execution timeline", nullptr,
           value(&timeline), kSingle},
          {"functional", "run real algorithm payloads and verify", nullptr,
           member<&H::functional>(config)},
          {"all-orders",
           "run the workload under all five launch orders and print a "
           "comparison table (one independent run per order)",
           nullptr, value(&all_orders)},
          {"jobs",
           "worker threads for --all-orders (0 = all hardware threads); "
           "output is identical at any job count",
           "1", value(&jobs, {.min = 0}), kSweep},
          {"fault-plan",
           "deterministic fault plan, key=value[,key=value...] or 'zero' (see "
           "EXPERIMENTS.md); same plan + seed reproduces byte-identical runs",
           "", tools::Target{"a fault plan",
                             [&config](const std::string& text,
                                       std::string* why) {
                               if (text.empty()) return true;
                               const auto plan =
                                   fault::parse_fault_plan(text, why);
                               if (plan) config.fault_plan = *plan;
                               return plan.has_value();
                             }}},
          {"fault-seed", "override the fault plan's seed", nullptr,
           member<&H::fault_plan, &fault::FaultPlan::seed>(config), kFault},
          {"watchdog-ms",
           "quarantine apps still running this many ms into the timed phase "
           "(0 = off)",
           "0", member<&H::watchdog_timeout>(config, kMillisecond), kFault},
          {"journal",
           "crash-safe sweep checkpoint file (--all-orders only): each "
           "finished point is appended and flushed",
           "", value(&journal), kSweep},
          {"resume",
           "replay finished points from --journal and run only the missing "
           "ones (byte-identical to an uninterrupted run)",
           nullptr, value(&resume), kJournal},
      },
      {"a single run", "--all-orders", "--fault-plan", "--journal"});
  if (!flags.parse(argc, argv) || flags.help()) {
    return flags.usage_exit("hqrun");
  }
  if (!flags.check_modes((all_orders ? kSweep : kSingle) |
                         (config.fault_plan.enabled ? kFault : 0) |
                         (journal.empty() ? 0 : kJournal))) {
    return tools::usage_error(flags.error());
  }
  if (app_types.size() > 2) {
    return tools::usage_error("--apps needs one or two types");
  }
  std::vector<std::string> apps;
  for (const std::size_t t : app_types) apps.push_back(rodinia::app_names()[t]);
  rodinia::AppParams params;
  if (size > 0) params.size = size;

  // Telemetry is passive (the schedule is bit-identical either way), so it
  // is enabled exactly when an export needs it.
  config.collect_telemetry =
      !metrics_path.empty() || !prom_path.empty() || !trace_path.empty();

  if (all_orders) {
    exec::SweepGrid grid;
    grid.app_sets = {apps};
    grid.na = {na};
    grid.ns = {config.num_streams};
    grid.orders.assign(std::begin(fw::kAllOrders), std::end(fw::kAllOrders));
    grid.memory_sync = {config.memory_sync};
    grid.seeds = {seed};
    grid.base = config;
    grid.params = params;
    exec::SweepRunner::Options options;
    options.jobs = jobs;
    options.journal_path = journal;
    options.resume = resume;
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

  Rng rng(seed);
  std::vector<int> counts;
  if (apps.size() == 2) {
    counts = {na / 2, na - na / 2};
  } else {
    counts = {na};
  }
  const fw::Order launch = fw::kAllOrders[order];
  const auto schedule = fw::make_schedule(launch, counts, &rng);
  const auto workload = rodinia::build_workload(
      schedule, apps, std::vector<rodinia::AppParams>(apps.size(), params));

  fw::Harness harness(config);
  const auto result = harness.run(workload);

  TextTable summary;
  summary.set_header({"metric", "value"});
  const std::string apps_text = tools::join(apps, ",");
  summary.add_row({"workload", apps_text + " x " + std::to_string(na)});
  summary.add_row({"streams", std::to_string(config.num_streams)});
  summary.add_row({"order", fw::order_name(launch)});
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

  if (timeline) {
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
    const auto info = fw::telemetry_run_info(config, result, apps_text,
                                             fw::order_name(launch));
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
  if (!power_path.empty()) {
    std::ofstream out(power_path);
    out << "t_ms,watts\n";
    for (const auto& sample : result.power_trace) {
      out << to_milliseconds(sample.time) << "," << sample.watts << "\n";
    }
    std::printf("wrote %s\n", power_path.c_str());
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
