#include "fleet/sweep.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace hq::fleet {

std::string FleetSweepPoint::label() const {
  std::ostringstream os;
  os << "n=" << fleet_size << " placement=" << placement_policy_name(placement);
  return os.str();
}

std::vector<FleetSweepPoint> FleetSweep::expand(const FleetSweepGrid& grid) {
  HQ_CHECK_MSG(!grid.fleet_sizes.empty() && !grid.placements.empty(),
               "every fleet sweep axis needs at least one value");
  for (const std::size_t n : grid.fleet_sizes) {
    HQ_CHECK_MSG(n >= 1, "fleet size must be positive");
  }
  std::vector<FleetSweepPoint> points;
  for (const std::size_t n : grid.fleet_sizes) {
    for (const PlacementPolicy policy : grid.placements) {
      FleetSweepPoint p;
      p.index = points.size();
      p.fleet_size = n;
      p.placement = policy;
      points.push_back(p);
    }
  }
  return points;
}

FleetConfig apply_fleet_point(const FleetSweepGrid& grid,
                              const FleetSweepPoint& point) {
  FleetConfig config = grid.base;
  config.placement = point.placement;
  const std::vector<gpu::DeviceSpec> specs = grid.base.device_specs();
  config.devices.resize(point.fleet_size);
  for (std::size_t d = 0; d < point.fleet_size; ++d) {
    config.devices[d] = specs[d % specs.size()];
  }
  return config;
}

FleetSweepOutcome FleetSweep::run_point(const FleetSweepGrid& grid,
                                        const FleetSweepPoint& point) {
  FleetService service(apply_fleet_point(grid, point));
  const FleetResult result = service.run();
  const FleetReport& r = result.report;

  FleetSweepOutcome o;
  o.point = point;
  o.arrived = r.arrived;
  o.completed_ok = r.completed_ok;
  o.completed = r.completed;
  o.shed = r.shed();
  o.requeued = r.requeued;
  o.stolen = r.stolen;
  o.goodput_per_sec = r.goodput_per_sec;
  o.throughput_per_sec = r.throughput_per_sec;
  o.deadline_miss_ratio = r.deadline_miss_ratio;
  o.energy = r.energy;
  o.total_time = static_cast<std::uint64_t>(r.total_time);
  o.report_digest = fleet_report_digest(r);
  return o;
}

std::uint64_t FleetSweep::grid_key(const FleetSweepGrid& grid,
                                   std::span<const FleetSweepPoint> points) {
  Fnv1a64 h;
  h.mix_string(kJournalMagic);
  // Records carry report digests, so a journal written under another report
  // schema must not resume.
  h.mix_u64(static_cast<std::uint64_t>(kFleetReportSchemaVersion));
  h.mix_u64(points.size());
  for (const FleetSweepPoint& p : points) h.mix_string(p.label());
  // The base config's canonical text holds every member of every tabled
  // config below it (device specs, fault plans, the serving config and
  // each class's resolved params), so no field can be left out.
  h.mix_string(codec::to_text(grid.base));
  return h.value();
}

std::span<const codec::Field<FleetSweepOutcome>> FleetSweep::journal_fields() {
  using codec::Kind;
  using codec::row;
  using O = FleetSweepOutcome;
  static constexpr codec::Field<O> fields[] = {
      row<&O::arrived>("arrived"),
      row<&O::completed_ok>("ok"),
      row<&O::completed>("done"),
      // Renamed from "shed", whose records left out failover-exhausted
      // jobs: a journal of an older build re-runs those points.
      row<&O::shed>("sheds"),
      row<&O::requeued>("requeued"),
      row<&O::stolen>("stolen"),
      row<&O::goodput_per_sec>("goodput"),
      row<&O::throughput_per_sec>("tput"),
      row<&O::deadline_miss_ratio>("miss"),
      row<&O::energy>("energy"),
      row<&O::total_time>("total"),
      row<&O::report_digest>("digest", {.kind = Kind::Hex}),
  };
  return fields;
}

std::uint64_t fleet_combined_digest(
    std::span<const FleetSweepOutcome> outcomes) {
  Fnv1a64 h;
  h.mix_u64(outcomes.size());
  for (const FleetSweepOutcome& o : outcomes) {
    h.mix_u64(o.point.index);
    h.mix_u64(o.report_digest);
    h.mix_u64(o.arrived);
    h.mix_u64(o.completed_ok);
  }
  return h.value();
}

std::string render_fleet_sweep_report(
    std::span<const FleetSweepOutcome> outcomes) {
  TextTable table;
  table.set_header({"#", "n", "placement", "arrived", "ok", "shed", "requeued",
                    "stolen", "goodput/s", "miss", "digest"});
  for (const FleetSweepOutcome& o : outcomes) {
    std::ostringstream digest;
    digest << std::hex << o.report_digest;
    table.add_row({std::to_string(o.point.index),
                   std::to_string(o.point.fleet_size),
                   placement_policy_name(o.point.placement),
                   std::to_string(o.arrived), std::to_string(o.completed_ok),
                   std::to_string(o.shed), std::to_string(o.requeued),
                   std::to_string(o.stolen), format_fixed(o.goodput_per_sec, 1),
                   format_fixed(o.deadline_miss_ratio, 3), digest.str()});
  }
  std::ostringstream os;
  os << table.render();
  os << "runs: " << outcomes.size();
  std::ostringstream digest;
  digest << std::hex << fleet_combined_digest(outcomes);
  os << "\ncombined digest: 0x" << digest.str() << "\n";
  return os.str();
}

}  // namespace hq::fleet
