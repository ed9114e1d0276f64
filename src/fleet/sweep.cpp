#include "fleet/sweep.hpp"

#include <array>
#include <sstream>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fault/fault.hpp"

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

  // Every result-affecting piece of the base fleet config must be mixed in:
  // a key collision between two configs would let --resume silently splice
  // cached outcomes from one fleet shape into the other's report. Placement
  // and fleet size are per-point coordinates (already in the labels above);
  // everything else is fingerprinted here, starting with the resolved device
  // roster the points draw from cyclically.
  const std::vector<gpu::DeviceSpec> specs = grid.base.device_specs();
  h.mix_u64(specs.size());
  for (const gpu::DeviceSpec& spec : specs) gpu::mix_device_spec(h, spec);

  // Fleet-level knobs.
  h.mix_double(grid.base.copy_penalty);
  h.mix_bool(grid.base.work_stealing);
  h.mix_bool(grid.base.device_breaker_enabled);
  h.mix_i64(grid.base.device_breaker.failure_threshold);
  h.mix_u64(grid.base.device_breaker.cooldown);

  // The shared per-device serving config. A class's type name alone does
  // not pin its workload: the application params (size, iterations, seed)
  // live inside the factory, so the item's resolved-params record is mixed
  // too.
  const serve::ServiceConfig& base = grid.base.base;
  gpu::mix_device_spec(h, base.device);
  h.mix_i64(base.num_streams);
  h.mix_bool(base.memory_sync);
  h.mix_bool(base.functional);
  h.mix_u64(base.window);
  h.mix_u64(base.mean_interarrival);
  h.mix_u64(base.classes.size());
  for (const serve::ClassSpec& c : base.classes) {
    h.mix_string(c.item.type_name);
    h.mix_string(c.item.params);
    h.mix_i64(c.priority);
  }
  h.mix_u64(base.seed);
  h.mix_u64(base.arrivals.size());
  for (const serve::Arrival& a : base.arrivals) {
    h.mix_u64(static_cast<std::uint64_t>(a.at));
    h.mix_u64(a.klass);
  }
  h.mix_u64(base.queue_cap);
  h.mix_u64(base.max_inflight);
  h.mix_string(serve::shed_policy_name(base.shed_policy));
  h.mix_u64(base.deadline);
  h.mix_bool(base.expire_queued);
  h.mix_bool(base.controller.enabled);
  h.mix_double(base.controller.engage_stretch);
  h.mix_double(base.controller.release_stretch);
  h.mix_double(base.controller.alpha);
  h.mix_u64(base.controller.min_samples);
  h.mix_u64(base.controller.min_dwell);
  h.mix_bool(base.breaker_enabled);
  h.mix_i64(base.breaker.failure_threshold);
  h.mix_u64(base.breaker.cooldown);
  fault::mix_fault_plan(h, base.fault_plan);
  // Fleet fault domains: per-device plans and failover/hedging knobs change
  // outcomes, so resuming across a chaos-config edit must miss the cache.
  h.mix_u64(grid.base.device_fault_plans.size());
  for (const fault::FaultPlan& plan : grid.base.device_fault_plans) {
    fault::mix_fault_plan(h, plan);
  }
  h.mix_i64(grid.base.failover_budget);
  h.mix_bool(grid.base.hedging);
  h.mix_double(grid.base.hedge_threshold);
  h.mix_u64(grid.base.hedge_min_samples);
  // Integrity pipeline: the policy and its knobs change outcomes (SDC plan
  // fields are already covered by the fault-plan strings above).
  h.mix_u64(static_cast<std::uint64_t>(grid.base.integrity));
  h.mix_double(grid.base.spotcheck_rate);
  h.mix_double(grid.base.sdc_blocklist_threshold);
  h.mix_double(grid.base.sdc_score_alpha);
  rt::mix_retry_policy(h, base.retry);
  h.mix_bool(base.check_invariants);
  return h.value();
}

std::span<const exec::JournalField<FleetSweepOutcome>>
FleetSweep::journal_fields() {
  using K = exec::FieldKind;
  using O = FleetSweepOutcome;
  static const std::array<exec::JournalField<O>, 12> fields = {{
      {"arrived", K::U64, &O::arrived},
      {"ok", K::U64, &O::completed_ok},
      {"done", K::U64, &O::completed},
      // Renamed from "shed", whose records left out failover-exhausted
      // jobs: a journal of an older build re-runs those points.
      {"sheds", K::U64, &O::shed},
      {"requeued", K::U64, &O::requeued},
      {"stolen", K::U64, &O::stolen},
      {"goodput", K::Double, &O::goodput_per_sec},
      {"tput", K::Double, &O::throughput_per_sec},
      {"miss", K::Double, &O::deadline_miss_ratio},
      {"energy", K::Double, &O::energy},
      {"total", K::U64, &O::total_time},
      {"digest", K::Hex, &O::report_digest},
  }};
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
