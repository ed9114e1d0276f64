// One typed flag table per tool, shared by hqrun, hqserve and hqfuzz.
//
// A tool declares each flag once, as a row: its name, help text, the
// tool's default, a target and the modes that read it. A target is a config
// member path, whose codec row (common/codec.hpp) gives the kind, bounds,
// accepted values and enum names, with an optional unit scale
// (`--window-ms`); or a tool-local typed value: a number with bounds, a
// text, a switch, one of a set of names, or a comma list of numbers or
// names. From the rows the table parses argv (`--switch`, `--key value`,
// `--key=value`), checks and writes every target, renders the usage text,
// and rejects a flag given in a mode that never reads it. Every error names
// the flag.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "gpusim/device_spec.hpp"

namespace hq::tools {

/// Splits "a,b,,c" into {"a", "b", "c"} (empty items are dropped).
std::vector<std::string> split_csv(const std::string& s);

/// Joins `items` with `sep` between them.
std::string join(const std::vector<std::string>& items, const char* sep);

/// The device model named k20, fermi or single-copy; nullopt otherwise.
std::optional<gpu::DeviceSpec> device_preset(const std::string& name);

/// Prints "error: <message>" to stderr; returns the usage-error exit code 2.
int usage_error(const std::string& message);

/// How a flag's text becomes a value. `set` writes it, or returns false
/// (with an optional detail in *why) when the text is not in `accepts`.
/// A tool may build one by hand for a value with its own parser.
struct Target {
  std::string accepts;
  std::function<bool(const std::string& text, std::string* why)> set;
  bool is_switch = false;  ///< a bare --flag; set("1") when given
};

namespace detail {

/// An integer or real `V` within `spec`, written to *out (a V or an
/// optional V); an integer is taken in units of `scale`.
template <typename V, typename Out>
Target number(Out* out, codec::Spec spec, V scale = 1) {
  spec.kind = std::is_integral_v<V> ? codec::Kind::Int : codec::Kind::Double;
  codec::Spec shown = spec;  // the bounds in the flag's own unit
  shown.min = spec.min / double(scale);
  shown.max = spec.max / double(scale);
  if (std::is_unsigned_v<V>) shown.min = std::max(shown.min, 0.0);
  return {codec::accepts(shown),
          [out, spec, scale](const std::string& text, std::string*) {
            using L = std::numeric_limits<V>;
            V v{};
            const char* end = text.data() + text.size();
            const auto [ptr, ec] = std::from_chars(text.data(), end, v);
            if (ec != std::errc() || ptr != end || v > L::max() / scale ||
                v < L::lowest() / scale ||
                !codec::in_bounds(spec, double(v * scale))) {
              return false;
            }
            *out = v * scale;
            return true;
          }};
}

/// A comma list, at least one item, of the values `item` writes to *slot.
template <typename V>
Target list_of(std::vector<V>* out, std::shared_ptr<V> slot, Target item) {
  item.accepts = "a comma list, each " + item.accepts;
  item.set = [out, slot, set = item.set](const std::string& text,
                                         std::string* why) {
    out->clear();
    for (const std::string& entry : split_csv(text)) {
      if (!set(entry, why)) return false;
      out->push_back(*slot);
    }
    return !out->empty();
  };
  return item;
}

/// One of `names`, as `write(index)`.
Target one_of(std::vector<std::string> names,
              std::function<void(std::size_t)> write);

}  // namespace detail

/// A tool-local value: an integer or real within `spec`, a text, or (bool)
/// a switch. An optional is written only when the flag is given.
template <typename V>
Target value(V* out, codec::Spec spec = {}) {
  if constexpr (std::is_same_v<V, bool>) {
    return {"", [out](const std::string&, std::string*) { return *out = true; },
            true};
  } else if constexpr (std::is_same_v<V, std::string>) {
    return {"a text", [out](const std::string& text, std::string*) {
              *out = text;
              return true;
            }};
  } else {
    return detail::number<V>(out, spec);
  }
}
template <typename V>
Target value(std::optional<V>* out, codec::Spec spec = {}) {
  return detail::number<V>(out, spec);
}

/// One of `names`: writes its index.
Target names(std::size_t* out, std::vector<std::string> names);
/// A comma list of `names`: writes their indexes.
Target names(std::vector<std::size_t>* out, std::vector<std::string> names);
/// A comma list of numbers within `spec`.
template <typename V>
Target list(std::vector<V>* out, codec::Spec spec = {}) {
  auto slot = std::make_shared<V>();
  return detail::list_of(out, slot, detail::number<V>(slot.get(), spec));
}

/// A config member, e.g. `member<&FleetConfig::base, &ServiceConfig::window>
/// (config, kMillisecond)`. Its codec row gives the kind, the bounds, the
/// accepted values and the enum names; an integer member takes its value in
/// units of `scale`. A bool member is a switch.
template <auto... Path, typename Root>
Target member(Root& root, std::uint64_t scale = 1) {
  constexpr auto leaf = std::get<sizeof...(Path) - 1>(std::tuple{Path...});
  using Owner = codec::detail::owner_t<leaf>;
  using V = codec::detail::value_t<Path...>;
  const codec::Field<Owner>* row = nullptr;
  for (const auto& f : codec_fields(Owner{})) {
    if (f.member == codec::detail::member_path<leaf>()) row = &f;
  }
  HQ_CHECK_MSG(row != nullptr, "no codec row for a flag's member");
  V* out = &codec::detail::member<Path...>(root);
  if constexpr (std::is_same_v<V, bool>) {
    return value(out);
  } else if constexpr (std::is_enum_v<V>) {
    std::vector<std::string> names;
    for (std::size_t i = 0; double(i) <= row->max; ++i) {
      names.emplace_back(row->name_at(i));
    }
    return detail::one_of(std::move(names),
                          [out](std::size_t i) { *out = static_cast<V>(i); });
  } else {
    Target t = detail::number<V>(out, *row, static_cast<V>(scale));
    if (row->what != nullptr && scale == 1) t.accepts = row->what;
    return t;
  }
}

/// Every mode, for a flag read wherever the tool runs.
inline constexpr unsigned kAllModes = ~0u;

struct Flag {
  std::string name;
  std::string help;
  /// The tool's default text, written when the flag is not given; nullptr
  /// leaves the target as it is.
  const char* fallback;
  Target target;
  /// The modes (bits) that read the flag.
  unsigned modes = kAllModes;
};

class FlagTable {
 public:
  /// `mode_names[i]` names mode bit i in errors; a `--help` switch is added.
  FlagTable(std::vector<Flag> flags, std::vector<std::string> mode_names = {});

  /// Parses argv, then writes every target in table order: the given text,
  /// else the default. False on a usage error.
  bool parse(int argc, const char* const* argv);
  /// False when a flag given on the command line is read by none of the
  /// `active` modes; error() names the flag and the run's mode (its lowest
  /// active bit).
  bool check_modes(unsigned active);

  bool help() const { return given_.back().has_value(); }
  const std::string& error() const { return error_; }
  std::string usage(const std::string& program) const;
  /// For a failed parse() or --help: prints the error, or for --help the
  /// usage, to stderr; returns the exit code (2, or 0 for --help).
  int usage_exit(const std::string& program) const;

 private:
  std::vector<Flag> flags_;
  std::vector<std::optional<std::string>> given_;
  std::vector<std::string> mode_names_;
  std::string error_;
};

}  // namespace hq::tools
