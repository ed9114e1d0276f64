#include "rodinia/registry.hpp"

#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "rodinia/gaussian.hpp"
#include "rodinia/hotspot.hpp"
#include "rodinia/lud.hpp"
#include "rodinia/needle.hpp"
#include "rodinia/nn.hpp"
#include "rodinia/pathfinder.hpp"
#include "rodinia/srad.hpp"

namespace hq::rodinia {
namespace {

/// The item's canonical resolved-params record (WorkloadItem::params).
std::string params_record(int size, std::optional<int> iterations,
                          std::uint64_t seed) {
  std::ostringstream os;
  os << "size=" << size;
  if (iterations) os << " iterations=" << *iterations;
  os << " seed=" << seed;
  return os.str();
}

}  // namespace

std::span<const codec::Field<AppParams>> codec_fields(const AppParams&) {
  static constexpr auto kFields = codec::table<AppParams>({
      codec::row<&AppParams::size>("size"),
      codec::row<&AppParams::iterations>("iterations"),
      codec::row<&AppParams::seed>("seed"),
  });
  return kFields;
}

const std::vector<std::string>& app_names() {
  // The paper's Table I four, plus the hotspot extension port.
  static const std::vector<std::string> names = {
      "gaussian", "nn", "needle", "srad", "hotspot", "lud", "pathfinder"};
  return names;
}

bool is_app_name(const std::string& name) {
  const auto& names = app_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

fw::WorkloadItem make_app(const std::string& name, const AppParams& params) {
  if (name == "gaussian") {
    GaussianParams p;
    if (params.size) p.n = *params.size;
    if (params.seed) p.seed = *params.seed;
    return fw::WorkloadItem{
        name, [p] { return std::make_unique<GaussianApp>(p); },
        params_record(p.n, std::nullopt, p.seed)};
  }
  if (name == "nn") {
    NnParams p;
    if (params.size) p.records = *params.size;
    if (params.seed) p.seed = *params.seed;
    return fw::WorkloadItem{
        name, [p] { return std::make_unique<NnApp>(p); },
        params_record(p.records, std::nullopt, p.seed)};
  }
  if (name == "needle") {
    NeedleParams p;
    if (params.size) p.n = *params.size;
    if (params.seed) p.seed = *params.seed;
    return fw::WorkloadItem{
        name, [p] { return std::make_unique<NeedleApp>(p); },
        params_record(p.n, std::nullopt, p.seed)};
  }
  if (name == "hotspot") {
    HotspotParams p;
    if (params.size) p.size = *params.size;
    if (params.iterations) p.iterations = *params.iterations;
    if (params.seed) p.seed = *params.seed;
    return fw::WorkloadItem{
        name, [p] { return std::make_unique<HotspotApp>(p); },
        params_record(p.size, p.iterations, p.seed)};
  }
  if (name == "lud") {
    LudParams p;
    if (params.size) p.n = *params.size;
    if (params.seed) p.seed = *params.seed;
    return fw::WorkloadItem{
        name, [p] { return std::make_unique<LudApp>(p); },
        params_record(p.n, std::nullopt, p.seed)};
  }
  if (name == "pathfinder") {
    PathfinderParams p;
    if (params.size) p.cols = *params.size;
    if (params.iterations) p.rows = *params.iterations;
    if (params.seed) p.seed = *params.seed;
    return fw::WorkloadItem{
        name, [p] { return std::make_unique<PathfinderApp>(p); },
        params_record(p.cols, p.rows, p.seed)};
  }
  if (name == "srad") {
    SradParams p;
    if (params.size) p.size = *params.size;
    if (params.iterations) p.iterations = *params.iterations;
    if (params.seed) p.seed = *params.seed;
    return fw::WorkloadItem{
        name, [p] { return std::make_unique<SradApp>(p); },
        params_record(p.size, p.iterations, p.seed)};
  }
  HQ_CHECK_MSG(false, "unknown application '" << name << "'");
  return {};
}

std::vector<fw::WorkloadItem> build_workload(
    const std::vector<fw::Slot>& schedule,
    const std::vector<std::string>& type_names,
    const std::vector<AppParams>& params) {
  HQ_CHECK(type_names.size() == params.size());
  std::vector<fw::WorkloadItem> workload;
  workload.reserve(schedule.size());
  for (const fw::Slot& slot : schedule) {
    HQ_CHECK(slot.type >= 0 &&
             static_cast<std::size_t>(slot.type) < type_names.size());
    workload.push_back(make_app(type_names[slot.type],
                                params[static_cast<std::size_t>(slot.type)]));
  }
  return workload;
}

std::vector<KernelConfigRow> kernel_config_rows() {
  // The paper's Table III, reproduced from the default launch shapes.
  return {
      {"gaussian", "Fan1", "512 x 512", 511, "(1, 1, 1)", "(512, 1, 1)", 1,
       512},
      {"gaussian", "Fan2", "512 x 512", 511, "(32, 32, 1)", "(16, 16, 1)",
       1024, 256},
      {"needle", "needle_cuda_shared_1", "512 x 512", 16,
       "(1, 1, 1) ... (16, 1, 1)", "(32, 1, 1)", 16, 32},
      {"needle", "needle_cuda_shared_2", "512 x 512", 15,
       "(15, 1, 1) ... (1, 1, 1)", "(32, 1, 1)", 15, 32},
      {"srad", "srad_cuda_1", "512 x 512", 10, "(32, 32, 1)", "(16, 16, 1)",
       1024, 256},
      {"srad", "srad_cuda_2", "512 x 512", 10, "(32, 32, 1)", "(16, 16, 1)",
       1024, 256},
      {"knearest", "euclid", "42764", 1, "(168, 1, 1)", "(256, 1, 1)", 168,
       256},
  };
}

}  // namespace hq::rodinia
