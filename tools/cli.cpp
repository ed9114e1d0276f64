#include "tools/cli.hpp"

#include <cstdio>
#include <sstream>

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

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (const std::string& item : items) {
    out += (out.empty() ? "" : sep) + item;
  }
  return out;
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

Target detail::one_of(std::vector<std::string> names,
                      std::function<void(std::size_t)> write) {
  return {"one of " + join(names, "|"),
          [names, write](const std::string& text, std::string*) {
            for (std::size_t i = 0; i < names.size(); ++i) {
              if (text == names[i]) {
                write(i);
                return true;
              }
            }
            return false;
          }};
}

Target names(std::size_t* out, std::vector<std::string> names) {
  return detail::one_of(std::move(names), [out](std::size_t i) { *out = i; });
}

Target names(std::vector<std::size_t>* out, std::vector<std::string> names) {
  auto slot = std::make_shared<std::size_t>();
  return detail::list_of(out, slot, tools::names(slot.get(), std::move(names)));
}

FlagTable::FlagTable(std::vector<Flag> flags,
                     std::vector<std::string> mode_names)
    : flags_(std::move(flags)), mode_names_(std::move(mode_names)) {
  flags_.push_back({"help", "show this help", nullptr,
                    {"", [](const std::string&, std::string*) { return true; },
                     true}});
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      HQ_CHECK_MSG(flags_[i].name != flags_[j].name,
                   "duplicate flag --" << flags_[i].name);
    }
  }
  given_.resize(flags_.size());
}

bool FlagTable::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument '" + arg + "'";
      return false;
    }
    const std::size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    std::size_t f = 0;
    while (f < flags_.size() && flags_[f].name != name) ++f;
    if (f == flags_.size()) {
      error_ = "unknown option '--" + name + "'";
      return false;
    }
    if (flags_[f].target.is_switch) {
      if (eq != std::string::npos) {
        error_ = "flag '--" + name + "' does not take a value";
        return false;
      }
      given_[f] = "1";
    } else if (eq != std::string::npos) {
      given_[f] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      given_[f] = argv[++i];
    } else {
      error_ = "option '--" + name + "' needs a value";
      return false;
    }
  }
  for (std::size_t f = 0; f < flags_.size(); ++f) {
    const Flag& flag = flags_[f];
    if (!given_[f] && flag.fallback == nullptr) continue;
    const std::string text = given_[f] ? *given_[f] : flag.fallback;
    std::string why;
    if (!flag.target.set(text, &why)) {
      error_ = "--" + flag.name + " needs " + flag.target.accepts + ", got '" +
               text + "'" + (why.empty() ? "" : ": " + why);
      return false;
    }
  }
  return true;
}

bool FlagTable::check_modes(unsigned active) {
  const auto names_of = [this](unsigned modes) {
    std::vector<std::string> names;
    for (std::size_t bit = 0; bit < mode_names_.size(); ++bit) {
      if (modes >> bit & 1u) names.push_back(mode_names_[bit]);
    }
    return join(names, " or ");
  };
  for (std::size_t f = 0; f < flags_.size(); ++f) {
    if (!given_[f] || (flags_[f].modes & active) != 0) continue;
    error_ = "--" + flags_[f].name + " does not apply to " +
             names_of(active & -active) + " (it needs " +
             names_of(flags_[f].modes) + ")";
    return false;
  }
  return true;
}

std::string FlagTable::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const Flag& flag : flags_) {
    os << "  --" << flag.name << (flag.target.is_switch ? "" : " <value>")
       << "\n      " << flag.help;
    if (flag.fallback != nullptr && *flag.fallback != '\0') {
      os << " (default: " << flag.fallback << ")";
    }
    os << "\n";
  }
  return os.str();
}

int FlagTable::usage_exit(const std::string& program) const {
  if (!help()) return usage_error(error_);
  std::fprintf(stderr, "%s", usage(program).c_str());
  return 0;
}

}  // namespace hq::tools
