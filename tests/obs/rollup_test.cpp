// FleetRollup semantics: per-metric merge rules (counter/gauge/histogram/
// series), merge-order independence of every export byte, Series::value_at,
// the export shape for edge cases (no devices, never-recorded histograms),
// and a differential test of the linear series merge against the original
// sort-and-binary-search merge.
#include "obs/rollup.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/report.hpp"
#include "tests/common/json_check.hpp"

namespace hq::obs {
namespace {

std::shared_ptr<MetricsRegistry> device_registry(double scale) {
  auto reg = std::make_shared<MetricsRegistry>();
  reg->counter("jobs", "jobs done").add(static_cast<std::uint64_t>(10 * scale));
  reg->gauge("power_w", "power draw").set(50.0 * scale);
  Histogram& h = reg->histogram("wait_ns", {10.0, 100.0}, "queue wait");
  h.record(5.0 * scale);
  h.record(500.0);
  Series& s = reg->series("depth", "queue depth");
  s.sample(0, 0.0);
  s.sample(static_cast<TimeNs>(100 * scale), 2.0);
  s.sample(static_cast<TimeNs>(200 * scale), 1.0);
  return reg;
}

TEST(SeriesValueAtTest, StepsAndClamps) {
  Series s;
  EXPECT_EQ(s.value_at(0), 0.0);  // empty series reads 0
  s.sample(100, 2.0);
  s.sample(200, 5.0);
  EXPECT_EQ(s.value_at(0), 0.0);    // before the first point
  EXPECT_EQ(s.value_at(100), 2.0);  // exactly on a point
  EXPECT_EQ(s.value_at(150), 2.0);  // between points: previous value
  EXPECT_EQ(s.value_at(999), 5.0);  // after the last point
}

TEST(FleetRollupTest, MergeSumsEveryKind) {
  FleetRollup rollup;
  rollup.add_device(0, "a", device_registry(1.0));
  rollup.add_device(1, "b", device_registry(2.0));

  const MetricsRegistry merged = rollup.merged();
  EXPECT_EQ(std::get<Counter>(merged.find("jobs")->metric).value(), 30u);
  EXPECT_DOUBLE_EQ(std::get<Gauge>(merged.find("power_w")->metric).value(),
                   150.0);

  const Histogram& h = std::get<Histogram>(merged.find("wait_ns")->metric);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 0, 2}));

  // depth: device a steps 0 -> 2@100 -> 1@200; device b 0 -> 2@200 -> 1@400.
  const Series& s = std::get<Series>(merged.find("depth")->metric);
  EXPECT_EQ(s.value_at(50), 0.0);
  EXPECT_EQ(s.value_at(100), 2.0);
  EXPECT_EQ(s.value_at(200), 3.0);  // 1 (a) + 2 (b)
  EXPECT_EQ(s.value_at(400), 2.0);  // 1 (a) + 1 (b)
}

TEST(FleetRollupTest, ExportsIndependentOfAddOrder) {
  FleetInfo info;
  info.workload = "synthetic";
  info.num_devices = 3;
  info.placement = "least-loaded";

  FleetRollup ascending;
  FleetRollup shuffled;
  for (int d : {0, 1, 2}) {
    ascending.add_device(d, "dev" + std::to_string(d),
                         device_registry(1.0 + d));
  }
  for (int d : {2, 0, 1}) {
    shuffled.add_device(d, "dev" + std::to_string(d),
                        device_registry(1.0 + d));
  }
  EXPECT_EQ(fleet_metrics_json(info, ascending),
            fleet_metrics_json(info, shuffled));
  EXPECT_EQ(fleet_prometheus_text(ascending),
            fleet_prometheus_text(shuffled));
}

TEST(FleetRollupTest, RejectsDuplicateAndInvalidDevices) {
  FleetRollup rollup;
  rollup.add_device(0, "a", device_registry(1.0));
  EXPECT_THROW(rollup.add_device(0, "dup", device_registry(1.0)), hq::Error);
  EXPECT_THROW(rollup.add_device(-1, "neg", device_registry(1.0)), hq::Error);
  EXPECT_THROW(rollup.add_device(1, "null", nullptr), hq::Error);
}

TEST(FleetRollupTest, RejectsKindMismatchAcrossDevices) {
  auto a = std::make_shared<MetricsRegistry>();
  a->counter("x");
  auto b = std::make_shared<MetricsRegistry>();
  b->gauge("x");
  FleetRollup rollup;
  rollup.add_device(0, "a", a);
  rollup.add_device(1, "b", b);
  EXPECT_THROW(rollup.merged(), hq::Error);
}

TEST(FleetRollupTest, EmptyHistogramExportsZeroBuckets) {
  auto reg = std::make_shared<MetricsRegistry>();
  reg->histogram("wait_ns", {10.0, 100.0}, "never recorded");
  FleetRollup rollup;
  rollup.add_device(0, "a", reg);

  const std::string prom = fleet_prometheus_text(rollup);
  EXPECT_NE(prom.find("hq_wait_ns_bucket{device=\"0\",le=\"10\"} 0\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hq_wait_ns_bucket{device=\"0\",le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("hq_wait_ns_count{device=\"0\"} 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("hq_fleet_wait_ns_count 0\n"), std::string::npos);

  const std::string json = fleet_metrics_json(FleetInfo{}, rollup);
  EXPECT_TRUE(hq::testing::json_well_formed(json)) << json;
}

TEST(FleetRollupTest, NoDevicesStillRendersWellFormedJson) {
  FleetRollup rollup;
  rollup.fleet().counter("fleet_only", "a fleet-scope counter").add(7);
  const std::string json = fleet_metrics_json(FleetInfo{}, rollup);
  EXPECT_TRUE(hq::testing::json_well_formed(json)) << json;
  const std::string prom = fleet_prometheus_text(rollup);
  EXPECT_NE(prom.find("hq_fleet_only 7\n"), std::string::npos) << prom;
}

// ------------------------------------------------- differential series merge

/// The series merge as originally written: every event time of every
/// source, sorted and de-duplicated, then a binary search per source at each
/// time, summed in source order from 0.0. The oracle for FleetRollup's
/// linear sweep, which must match it bit for bit.
Series reference_merge(const std::vector<const Series*>& sources) {
  std::vector<TimeNs> times;
  for (const Series* s : sources) {
    for (Series::Cursor c(*s); !c.done(); c.next()) times.push_back(c.time());
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  Series out;
  for (const TimeNs t : times) {
    double sum = 0.0;
    for (const Series* s : sources) sum += s->value_at(t);
    out.sample(t, sum);
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Seeded random device registry: each of three series is present with
/// probability 3/4, sampled on a coarse time grid (so devices share and
/// coincide on timestamps, and one device may sample an instant twice) with
/// small signed steps and non-dyadic values (so summation order shows in
/// the rounding). A counter rides along so the merge interleaves kinds.
std::shared_ptr<MetricsRegistry> random_registry(Rng& rng) {
  auto reg = std::make_shared<MetricsRegistry>();
  reg->counter("events", "events seen").add(rng.next_below(100));
  for (const char* name : {"depth", "power", "occupancy"}) {
    if (rng.next_below(4) == 0) continue;  // this device lacks the metric
    Series& s = reg->series(name, std::string(name) + " help");
    const std::uint64_t samples = rng.next_below(30);
    TimeNs t = static_cast<TimeNs>(rng.next_below(5)) * 10;
    double v = 0.0;
    for (std::uint64_t i = 0; i < samples; ++i) {
      switch (rng.next_below(4)) {
        case 0: v += 1.0; break;
        case 1: v -= 1.0; break;  // negative steps, dips below zero
        case 2: v = static_cast<double>(rng.next_in(-3, 3)) * 0.1; break;
        default: v = rng.next_double_in(-2.0, 5.0); break;
      }
      s.sample(t, v);
      t += static_cast<TimeNs>(rng.next_below(3)) * 10;  // 0: same instant
    }
  }
  return reg;
}

/// Checks merged() and the Prometheus text of `rollup` against the oracle.
void expect_matches_reference(const FleetRollup& rollup) {
  // Metric names in first-encounter order over ascending device ids, and
  // each name's sources in that order.
  std::vector<std::string> names;
  for (const FleetRollup::DeviceEntry& d : rollup.devices()) {
    d.registry->for_each([&](const MetricsRegistry::Entry& e) {
      if (std::find(names.begin(), names.end(), e.name) == names.end()) {
        names.push_back(e.name);
      }
    });
  }

  const MetricsRegistry merged = rollup.merged();
  ASSERT_EQ(merged.size(), names.size());
  MetricsRegistry reference;  // merged metrics under their exported names
  for (const std::string& name : names) {
    const MetricsRegistry::Entry* got = merged.find(name);
    ASSERT_NE(got, nullptr) << name;
    if (got->kind != MetricKind::Series) {
      std::uint64_t total = 0;
      for (const FleetRollup::DeviceEntry& d : rollup.devices()) {
        total += std::get<Counter>(d.registry->find(name)->metric).value();
      }
      EXPECT_EQ(std::get<Counter>(got->metric).value(), total);
      reference.counter("fleet_" + name, got->help).add(total);
      continue;
    }
    std::vector<const Series*> sources;
    for (const FleetRollup::DeviceEntry& d : rollup.devices()) {
      if (const auto* e = d.registry->find(name)) {
        sources.push_back(&std::get<Series>(e->metric));
      }
    }
    const Series want = reference_merge(sources);
    const Series& have = std::get<Series>(got->metric);
    ASSERT_EQ(have.size(), want.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(have.point(i).time, want.point(i).time) << name << i;
      EXPECT_EQ(bits(have.point(i).value), bits(want.point(i).value))
          << name << " point " << i;
    }
    EXPECT_EQ(bits(have.last()), bits(want.last())) << name;
    EXPECT_EQ(bits(have.peak()), bits(want.peak())) << name;

    Series& ref = reference.series("fleet_" + name, got->help);
    for (Series::Cursor c(want); !c.done(); c.next()) {
      ref.sample(c.time(), c.value());
    }
  }

  // The merged section closes the Prometheus text (the fleet-scope
  // registry is empty here) and must equal the oracle's rendering.
  const std::string prom = fleet_prometheus_text(rollup);
  const std::string tail = prometheus_text(reference);
  ASSERT_GE(prom.size(), tail.size());
  EXPECT_EQ(prom.substr(prom.size() - tail.size()), tail);
}

TEST(FleetRollupDifferentialTest, LinearMergeMatchesReferenceBitForBit) {
  for (std::size_t devices = 0; devices <= 9; ++devices) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("devices " + std::to_string(devices) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 1000 + devices);
      // Sparse, shuffled ids: summation must follow ascending id, not
      // registration order.
      std::vector<int> ids;
      for (std::size_t d = 0; d < devices; ++d) {
        ids.push_back(static_cast<int>(d * 3 + rng.next_below(3)));
      }
      rng.shuffle(ids);
      FleetRollup rollup;
      for (const int id : ids) {
        rollup.add_device(id, "dev" + std::to_string(id), random_registry(rng));
      }
      expect_matches_reference(rollup);
    }
  }
}

TEST(FleetRollupDifferentialTest, OffsettingStepsDropTheMergedPoint) {
  // Device 0 steps up exactly when device 1 steps down: the fleet sum never
  // changes after t=0, so the merged series keeps a single point.
  auto a = std::make_shared<MetricsRegistry>();
  auto b = std::make_shared<MetricsRegistry>();
  Series& sa = a->series("depth");
  Series& sb = b->series("depth");
  for (TimeNs t = 0; t < 100; t += 10) {
    const bool up = (t / 10) % 2 == 1;
    sa.sample(t, up ? 1.0 : 0.0);
    sb.sample(t, up ? 0.0 : 1.0);
  }
  FleetRollup rollup;
  rollup.add_device(0, "a", a);
  rollup.add_device(1, "b", b);
  const MetricsRegistry merged = rollup.merged();
  const Series& depth = std::get<Series>(merged.find("depth")->metric);
  ASSERT_EQ(depth.size(), 1u);
  EXPECT_EQ(depth.point(0).time, 0u);
  EXPECT_EQ(depth.point(0).value, 1.0);
  expect_matches_reference(rollup);
}

}  // namespace
}  // namespace hq::obs
