// Application registry: the ported Rodinia benchmarks (paper Table I) as
// harness workload factories, plus the Table III kernel-configuration data.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "hyperq/harness.hpp"
#include "hyperq/schedule.hpp"

namespace hq::rodinia {

/// Unified parameter overrides; unset fields use the paper's Table III
/// configuration (gaussian/needle/srad at 512, nn at 42764 records).
struct AppParams {
  /// gaussian/needle: matrix dimension; srad: image side; nn: record count.
  std::optional<int> size;
  /// srad only: diffusion iterations.
  std::optional<int> iterations;
  std::optional<std::uint64_t> seed;
};

/// The params' codec table (common/codec.hpp); an unset field is `none`.
std::span<const codec::Field<AppParams>> codec_fields(const AppParams&);

/// Names of the ported applications: gaussian, nn, needle, srad (Table I).
const std::vector<std::string>& app_names();

/// True if `name` is a known application.
bool is_app_name(const std::string& name);

/// Builds a workload item for the named application. Throws on unknown
/// names. The factory creates a fresh instance per call, so items can be
/// reused across harness runs.
fw::WorkloadItem make_app(const std::string& name, const AppParams& params = {});

/// Expands a schedule (from fw::make_schedule) over concrete application
/// types into an ordered workload. `type_names[t]` and `params[t]`
/// correspond to schedule slot type t.
std::vector<fw::WorkloadItem> build_workload(
    const std::vector<fw::Slot>& schedule,
    const std::vector<std::string>& type_names,
    const std::vector<AppParams>& params);

/// One row of the paper's Table III.
struct KernelConfigRow {
  std::string application;
  std::string kernel;
  std::string data_dim;
  int calls = 0;
  std::string grid_dim;
  std::string block_dim;
  int thread_blocks = 0;      ///< per call (largest grid for varying calls)
  int threads_per_block = 0;
};

/// Table III for the paper's default configuration.
std::vector<KernelConfigRow> kernel_config_rows();

}  // namespace hq::rodinia
