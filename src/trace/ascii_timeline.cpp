#include "trace/ascii_timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.hpp"

namespace hq::trace {
namespace {

char glyph_for(SpanKind kind) {
  switch (kind) {
    case SpanKind::MemcpyHtoD: return 'H';
    case SpanKind::MemcpyDtoH: return 'D';
    case SpanKind::Kernel: return 'K';
    case SpanKind::HostCompute: return 'h';
    case SpanKind::LockWait: return 'w';
  }
  return '?';
}

/// Copies have priority over host/wait glyphs, kernels over copies, so a
/// cell containing several activities shows the most device-relevant one.
int glyph_rank(SpanKind kind) {
  switch (kind) {
    case SpanKind::Kernel: return 3;
    case SpanKind::MemcpyHtoD: return 2;
    case SpanKind::MemcpyDtoH: return 2;
    case SpanKind::HostCompute: return 1;
    case SpanKind::LockWait: return 0;
  }
  return 0;
}

}  // namespace

std::string render_ascii_timeline(const Recorder& recorder,
                                  const AsciiTimelineOptions& options) {
  HQ_CHECK(options.width > 0);
  if (recorder.empty()) return "";

  const TimeNs t0 = options.begin.value_or(*recorder.min_time());
  const TimeNs t1 = options.end.value_or(*recorder.max_time());
  if (t1 <= t0) return "";
  const double span_ns = static_cast<double>(t1 - t0);
  const int width = options.width;

  // Lane -> (row characters, rank per cell for overwrite priority).
  std::map<std::int32_t, std::pair<std::string, std::vector<int>>> rows;
  for (const Span& s : recorder) {
    if (s.end <= t0 || s.begin >= t1) continue;
    auto [it, inserted] = rows.try_emplace(
        s.lane, std::string(static_cast<std::size_t>(width), '.'),
        std::vector<int>(static_cast<std::size_t>(width), -1));
    auto& [cells, ranks] = it->second;

    const TimeNs clipped_begin = std::max(s.begin, t0);
    const TimeNs clipped_end = std::min(s.end, t1);
    int c0 = static_cast<int>(static_cast<double>(clipped_begin - t0) /
                              span_ns * width);
    int c1 = static_cast<int>(static_cast<double>(clipped_end - t0) /
                              span_ns * width);
    c0 = std::clamp(c0, 0, width - 1);
    c1 = std::clamp(c1, c0 + 1, width);  // at least one visible cell
    const int rank = glyph_rank(s.kind);
    const char glyph = glyph_for(s.kind);
    for (int c = c0; c < c1; ++c) {
      if (rank >= ranks[static_cast<std::size_t>(c)]) {
        ranks[static_cast<std::size_t>(c)] = rank;
        cells[static_cast<std::size_t>(c)] = glyph;
      }
    }
  }

  std::size_t label_width = 0;
  for (const auto& [lane, row] : rows) {
    std::ostringstream label;
    label << options.lane_prefix << (lane + options.lane_label_base);
    label_width = std::max(label_width, label.str().size());
  }

  std::ostringstream os;
  os << std::string(label_width, ' ') << " |" << "t=" << format_duration(0)
     << " .. " << format_duration(t1 - t0) << "\n";
  for (const auto& [lane, row] : rows) {
    std::ostringstream label;
    label << options.lane_prefix << (lane + options.lane_label_base);
    std::string padded = label.str();
    padded.resize(label_width, ' ');
    os << padded << " |" << row.first << "|\n";
  }
  os << std::string(label_width, ' ')
     << "  H=HtoD copy  D=DtoH copy  K=kernel  h=host  w=lock wait  .=idle\n";
  return os.str();
}

}  // namespace hq::trace
