#include "tools/cli.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace hq::tools {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::optional<gpu::DeviceSpec> device_preset(const std::string& name) {
  if (name == "k20") return gpu::DeviceSpec::tesla_k20();
  if (name == "fermi") return gpu::DeviceSpec::fermi_single_queue();
  if (name == "single-copy") return gpu::DeviceSpec::single_copy_engine();
  return std::nullopt;
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  HQ_CHECK_MSG(options_.find(name) == options_.end(),
               "duplicate option --" << name);
  options_[name] = Option{help, default_value, false, false};
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  HQ_CHECK_MSG(options_.find(name) == options_.end(),
               "duplicate flag --" << name);
  options_[name] = Option{help, "false", true, false};
  order_.push_back(name);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  error_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument '" + arg + "'";
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end()) {
      error_ = "unknown option '--" + arg + "'";
      return false;
    }
    Option& opt = it->second;
    if (opt.is_flag) {
      if (has_inline_value) {
        error_ = "flag '--" + arg + "' does not take a value";
        return false;
      }
      opt.value = "true";
    } else if (has_inline_value) {
      opt.value = value;
    } else {
      if (i + 1 >= argc) {
        error_ = "option '--" + arg + "' needs a value";
        return false;
      }
      opt.value = argv[++i];
    }
    opt.seen = true;
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  auto it = options_.find(name);
  HQ_CHECK_MSG(it != options_.end(), "unregistered option --" << name);
  return it->second.value;
}

std::optional<long long> ArgParser::get_int(const std::string& name) const {
  const std::string value = get(name);
  long long out = 0;
  const auto* begin = value.data();
  const auto* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

std::optional<double> ArgParser::get_double(const std::string& name,
                                            double lo, double hi,
                                            bool lo_open) {
  const std::string text = get(name);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  const bool parsed = errno == 0 && end != text.c_str() && *end == '\0';
  // Written so that NaN fails every bound.
  if (parsed && (lo_open ? value > lo : value >= lo) && value <= hi) {
    return value;
  }
  std::ostringstream os;
  os << "--" << name << " needs a number ";
  if (std::isinf(hi)) {
    os << (lo_open ? "> " : ">= ") << lo;
  } else {
    os << "in " << (lo_open ? '(' : '[') << lo << ", " << hi << ']';
  }
  error_ = os.str();
  return std::nullopt;
}

bool ArgParser::get_flag(const std::string& name) const {
  return get(name) == "true";
}

bool ArgParser::provided(const std::string& name) const {
  auto it = options_.find(name);
  HQ_CHECK_MSG(it != options_.end(), "unregistered option --" << name);
  return it->second.seen;
}

std::string ArgParser::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const std::string& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (!opt.is_flag) os << " <value>";
    os << "\n      " << opt.help;
    if (!opt.is_flag && !opt.value.empty() && !opt.seen) {
      os << " (default: " << opt.value << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace hq::tools
