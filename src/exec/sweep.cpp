#include "exec/sweep.hpp"

#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/report.hpp"
#include "trace/trace.hpp"

namespace hq::exec {

std::vector<int> SweepPoint::counts() const {
  const int k = static_cast<int>(apps.size());
  std::vector<int> out(apps.size());
  const int base = na / k;
  const int extra = na % k;
  for (int t = 0; t < k; ++t) {
    out[static_cast<std::size_t>(t)] = base + (t >= k - extra ? 1 : 0);
  }
  return out;
}

std::string SweepPoint::label() const {
  std::ostringstream os;
  for (std::size_t t = 0; t < apps.size(); ++t) {
    if (t > 0) os << "+";
    os << apps[t];
  }
  os << " na=" << na << " ns=" << ns << " order=" << fw::order_name(order)
     << " memsync=" << (memory_sync ? 1 : 0) << " seed=" << seed;
  return os.str();
}

std::vector<SweepPoint> SweepRunner::expand(const SweepGrid& grid) {
  HQ_CHECK_MSG(!grid.app_sets.empty() && !grid.na.empty() && !grid.ns.empty() &&
                   !grid.orders.empty() && !grid.memory_sync.empty() &&
                   !grid.seeds.empty(),
               "every sweep axis needs at least one value");
  for (const auto& apps : grid.app_sets) {
    HQ_CHECK_MSG(!apps.empty(), "empty application set in sweep grid");
    for (const std::string& app : apps) {
      HQ_CHECK_MSG(rodinia::is_app_name(app),
                   "unknown application '" << app << "' in sweep grid");
    }
  }
  std::vector<SweepPoint> points;
  for (const auto& apps : grid.app_sets) {
    for (const int na : grid.na) {
      HQ_CHECK_MSG(na >= static_cast<int>(apps.size()),
                   "NA must cover at least one instance per type");
      for (const int ns : grid.ns) {
        HQ_CHECK_MSG(ns >= 1, "NS must be positive");
        for (const fw::Order order : grid.orders) {
          for (const bool memsync : grid.memory_sync) {
            for (const std::uint64_t seed : grid.seeds) {
              SweepPoint p;
              p.index = points.size();
              p.apps = apps;
              p.na = na;
              p.ns = ns;
              p.order = order;
              p.memory_sync = memsync;
              p.seed = seed;
              points.push_back(std::move(p));
            }
          }
        }
      }
    }
  }
  return points;
}

SweepOutcome SweepRunner::run_point(const SweepGrid& grid,
                                    const SweepPoint& point) {
  fw::HarnessConfig config = grid.base;
  config.num_streams = point.ns;
  config.memory_sync = point.memory_sync;

  Rng rng(point.seed);
  const std::vector<int> counts = point.counts();
  const auto schedule = fw::make_schedule(point.order, counts, &rng);
  const auto workload = rodinia::build_workload(
      schedule, point.apps,
      std::vector<rodinia::AppParams>(point.apps.size(), grid.params));

  fw::Harness harness(config);
  const fw::HarnessResult result = harness.run(workload);

  SweepOutcome o;
  o.point = point;
  o.makespan = result.makespan;
  o.energy_exact = result.energy_exact;
  o.average_power = result.average_power;
  o.peak_power = result.peak_power;
  o.average_occupancy = result.average_occupancy;
  o.trace_digest = trace::digest(*result.trace);
  o.all_verified = result.all_verified;
  o.mean_htod_latency_ns = fw::mean_htod_effective_latency(result.apps);
  for (const fw::AppMetrics& m : result.apps) {
    o.htod_interleave_count += m.htod_interleave_count;
    o.htod_interleave_bytes += m.htod_interleave_bytes;
  }
  if (result.telemetry != nullptr) {
    if (const auto* e =
            result.telemetry->registry().find("copy_queue_depth_htod")) {
      o.peak_copy_queue_depth_htod = std::get<obs::Series>(e->metric).peak();
    }
  }
  o.faults_injected = result.degraded.stats.total();
  o.quarantined_apps = result.degraded.quarantined.size();
  return o;
}

std::uint64_t SweepRunner::grid_key(const SweepGrid& grid,
                                    std::span<const SweepPoint> points) {
  Fnv1a64 h;
  h.mix_string(kJournalMagic);
  h.mix_u64(points.size());
  for (const SweepPoint& p : points) h.mix_string(p.label());
  // The base config's canonical text holds every member of every tabled
  // config below it, so no result-affecting field can be left out.
  h.mix_string(codec::to_text(grid.base));
  h.mix_string(codec::to_text(grid.params));
  return h.value();
}

std::span<const codec::Field<SweepOutcome>> SweepRunner::journal_fields() {
  using codec::Kind;
  using codec::row;
  using O = SweepOutcome;
  static constexpr codec::Field<O> fields[] = {
      row<&O::makespan>("makespan"),
      row<&O::energy_exact>("energy"),
      row<&O::average_power>("avgw"),
      row<&O::peak_power>("peakw"),
      row<&O::average_occupancy>("occ"),
      row<&O::mean_htod_latency_ns>("meanle"),
      row<&O::htod_interleave_count>("ilc"),
      row<&O::htod_interleave_bytes>("ilb"),
      row<&O::peak_copy_queue_depth_htod>("qdepth"),
      row<&O::faults_injected>("faults"),
      row<&O::quarantined_apps>("quar"),
      row<&O::all_verified>("verified"),
      row<&O::trace_digest>("digest", {.kind = Kind::Hex}),
  };
  return fields;
}

std::vector<SweepOutcome> SweepRunner::run(const SweepGrid& grid,
                                           const Options& options) const {
  return run_grid<SweepRunner>(grid, options);
}

std::uint64_t combined_digest(std::span<const SweepOutcome> outcomes) {
  Fnv1a64 h;
  h.mix_u64(outcomes.size());
  for (const SweepOutcome& o : outcomes) {
    h.mix_u64(o.point.index);
    h.mix_u64(o.trace_digest);
    h.mix_u64(o.makespan);
    h.mix_u64(static_cast<std::uint64_t>(o.energy_exact * 1e9));
  }
  return h.value();
}

std::string render_report(std::span<const SweepOutcome> outcomes) {
  TextTable table;
  table.set_header({"#", "workload", "na", "ns", "order", "memsync",
                    "makespan", "energy", "avg W", "digest"});
  RunningStats makespan_ms, energy_j;
  for (const SweepOutcome& o : outcomes) {
    std::string apps;
    for (std::size_t t = 0; t < o.point.apps.size(); ++t) {
      if (t > 0) apps += "+";
      apps += o.point.apps[t];
    }
    std::ostringstream digest;
    digest << std::hex << o.trace_digest;
    table.add_row({std::to_string(o.point.index), apps,
                   std::to_string(o.point.na), std::to_string(o.point.ns),
                   fw::order_name(o.point.order),
                   o.point.memory_sync ? "on" : "off",
                   format_duration(o.makespan),
                   format_fixed(o.energy_exact, 3) + " J",
                   format_fixed(o.average_power, 1), digest.str()});
    makespan_ms.add(to_milliseconds(o.makespan));
    energy_j.add(o.energy_exact);
  }

  std::ostringstream os;
  os << table.render();
  os << "runs: " << outcomes.size();
  if (!outcomes.empty()) {
    os << "  makespan ms [min " << format_fixed(makespan_ms.min(), 3)
       << ", mean " << format_fixed(makespan_ms.mean(), 3) << ", max "
       << format_fixed(makespan_ms.max(), 3) << "]"
       << "  energy J [mean " << format_fixed(energy_j.mean(), 3) << "]";
  }
  std::ostringstream digest;
  digest << std::hex << combined_digest(outcomes);
  os << "\ncombined digest: 0x" << digest.str() << "\n";
  return os.str();
}

void write_sweep_metrics_json(std::ostream& os,
                              std::span<const SweepOutcome> outcomes) {
  os << "{\n  \"schema_version\": " << obs::kMetricsSchemaVersion << ",\n";
  os << "  \"points\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    std::ostringstream digest;
    digest << std::hex << o.trace_digest;
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"index\": " << o.point.index << ", \"label\": \""
       << o.point.label() << "\", \"makespan_ns\": " << o.makespan
       << ", \"energy_j\": " << obs::format_double(o.energy_exact)
       << ", \"average_power_w\": " << obs::format_double(o.average_power)
       << ", \"peak_power_w\": " << obs::format_double(o.peak_power)
       << ", \"average_occupancy\": "
       << obs::format_double(o.average_occupancy)
       << ", \"mean_htod_latency_ns\": "
       << obs::format_double(o.mean_htod_latency_ns)
       << ", \"htod_interleave_count\": " << o.htod_interleave_count
       << ", \"htod_interleave_bytes\": " << o.htod_interleave_bytes
       << ", \"peak_copy_queue_depth_htod\": "
       << obs::format_double(o.peak_copy_queue_depth_htod)
       << ", \"faults_injected\": " << o.faults_injected
       << ", \"quarantined_apps\": " << o.quarantined_apps
       << ", \"all_verified\": " << (o.all_verified ? "true" : "false")
       << ", \"trace_digest\": \"0x" << digest.str() << "\"}";
  }
  os << (outcomes.empty() ? "],\n" : "\n  ],\n");
  std::ostringstream digest;
  digest << std::hex << combined_digest(outcomes);
  os << "  \"combined_digest\": \"0x" << digest.str() << "\"\n}\n";
}

std::string sweep_metrics_json(std::span<const SweepOutcome> outcomes) {
  std::ostringstream os;
  write_sweep_metrics_json(os, outcomes);
  return os.str();
}

}  // namespace hq::exec
