// Minimal command-line flag parser shared by the hqrun, hqserve and hqfuzz
// tools, plus the value parsers they have in common.
//
// Supports `--flag` (bool), `--key value` and `--key=value` forms, collects
// unknown-flag errors instead of aborting, and renders a usage block from
// the registered options.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"

namespace hq::tools {

/// Splits "a,b,,c" into {"a", "b", "c"} (empty items are dropped).
std::vector<std::string> split_csv(const std::string& s);

/// The device model named k20, fermi or single-copy; nullopt otherwise.
std::optional<gpu::DeviceSpec> device_preset(const std::string& name);

class ArgParser {
 public:
  /// Registers a value option (`--name <value>`).
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value = "");
  /// Registers a boolean flag (`--name`).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv; returns false (and fills error()) on unknown or malformed
  /// arguments.
  bool parse(int argc, const char* const* argv);

  /// Value of an option (default when not given on the command line).
  std::string get(const std::string& name) const;
  /// Integer value of an option; nullopt if not an integer.
  std::optional<long long> get_int(const std::string& name) const;
  /// Real value of an option in [lo, hi], or in (lo, hi] when `lo_open`;
  /// hi may be infinite. Otherwise nullopt, and error() names the flag and
  /// the accepted range.
  std::optional<double> get_double(const std::string& name, double lo,
                                   double hi, bool lo_open = false);
  bool get_flag(const std::string& name) const;
  /// True when the user supplied the option explicitly.
  bool provided(const std::string& name) const;

  const std::string& error() const { return error_; }
  std::string usage(const std::string& program) const;

 private:
  struct Option {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool seen = false;
  };
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
  std::string error_;
};

}  // namespace hq::tools
