#include "exec/grid.hpp"

#include <cstdlib>
#include <sstream>

namespace hq::exec {
namespace {

constexpr const char* kVersion = "v1";

/// Splits `<kind> key=value ... end` into its fields; nullopt when the kind
/// differs, a token is malformed, or the terminal `end` is missing (a torn
/// line) or followed by junk.
std::optional<std::map<std::string, std::string, std::less<>>> fields_of(
    const std::string& line, std::string_view kind) {
  std::istringstream in(line);
  std::string token;
  if (!(in >> token) || token != kind) return std::nullopt;
  std::map<std::string, std::string, std::less<>> fields;
  bool ended = false;
  while (in >> token) {
    if (token == "end") {
      ended = true;
      break;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (!ended || (in >> token)) return std::nullopt;
  return fields;
}

bool parse_u64(const std::map<std::string, std::string, std::less<>>& fields,
               std::string_view key, int base, std::uint64_t* out) {
  const auto it = fields.find(key);
  if (it == fields.end()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, base);
  if (end == nullptr || *end != '\0' || end == it->second.c_str()) return false;
  *out = v;
  return true;
}

}  // namespace

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << value;
  return os.str();
}

std::string journal_header_line(std::string_view magic, std::uint64_t grid_key,
                                std::size_t total_points) {
  std::ostringstream os;
  os << magic << " version=" << kVersion << " grid=" << hex(grid_key)
     << " points=" << total_points << " end";
  return os.str();
}

void check_journal_header(const std::string& line, std::string_view magic,
                          std::uint64_t grid_key, std::size_t total_points) {
  const auto header = fields_of(line, magic);
  HQ_CHECK_MSG(header.has_value(),
               magic << ": unrecognized or torn header line");
  const auto version = header->find("version");
  HQ_CHECK_MSG(version != header->end() && version->second == kVersion,
               magic << ": unsupported version '"
                     << (version == header->end() ? "" : version->second)
                     << "' (expected " << kVersion << ")");
  std::uint64_t key = 0;
  std::uint64_t total = 0;
  HQ_CHECK_MSG(parse_u64(*header, "grid", 16, &key) &&
                   parse_u64(*header, "points", 10, &total),
               magic << ": malformed header line");
  HQ_CHECK_MSG(key == grid_key && total == total_points,
               magic << ": grid mismatch (journal grid=" << hex(key)
                     << " points=" << total << ", this grid=" << hex(grid_key)
                     << " points=" << total_points
                     << ") — refusing to resume a different sweep");
}

std::optional<JournalRecord> parse_journal_record(const std::string& line,
                                                  std::size_t total_points) {
  auto fields = fields_of(line, "point");
  if (!fields) return std::nullopt;
  std::uint64_t index = 0;
  if (!parse_u64(*fields, "index", 10, &index) || index >= total_points) {
    return std::nullopt;
  }
  return JournalRecord{static_cast<std::size_t>(index), std::move(*fields)};
}

void JournalWriter::open(const std::string& path, bool has_header,
                         std::string_view magic, std::uint64_t grid_key,
                         std::size_t total_points) {
  out_.open(path, has_header ? std::ios::app : std::ios::trunc);
  HQ_CHECK_MSG(out_.is_open(), "cannot open journal '" << path << "'");
  if (!has_header) {
    out_ << journal_header_line(magic, grid_key, total_points) << '\n'
         << std::flush;
  }
}

void JournalWriter::append(const std::string& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << record << '\n' << std::flush;
}

}  // namespace hq::exec
