#include "trace/chrome_trace.hpp"

#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>

namespace hq::trace {
namespace {

/// Shortest round-trip decimal form (std::to_chars), so rendered output is
/// byte-identical across runs and toolchain locales — stream operator<<
/// would round to 6 significant digits and honour global precision state.
void write_double(std::ostream& os, double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, ptr - buf);
  (void)ec;
}

void write_escaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Control characters are not expected in span names; drop them.
          break;
        }
        os << c;
    }
  }
}

void write_spans(std::ostream& os, const Recorder& recorder, int pid,
                 bool& first) {
  for (const Span& s : recorder) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"";
    write_escaped(os, recorder.name_of(s.name));
    os << "\", \"cat\": \"" << span_kind_name(s.kind) << "\""
       << ", \"ph\": \"X\""
       << ", \"ts\": ";
    write_double(os, static_cast<double>(s.begin) / 1e3);
    os << ", \"dur\": ";
    write_double(os, static_cast<double>(s.duration()) / 1e3);
    os << ", \"pid\": " << pid << ", \"tid\": " << s.lane
       << ", \"args\": {\"app\": " << s.app_id << "}}";
  }
}

void write_counters(std::ostream& os,
                    const std::vector<CounterTrack>& counters, int pid,
                    bool& first) {
  for (const CounterTrack& track : counters) {
    for (const CounterPoint& p : track.points) {
      if (!first) os << ",";
      first = false;
      os << "\n  {\"name\": \"";
      write_escaped(os, track.name);
      os << "\", \"ph\": \"C\", \"ts\": ";
      write_double(os, static_cast<double>(p.time) / 1e3);
      os << ", \"pid\": " << pid << ", \"args\": {\"value\": ";
      write_double(os, p.value);
      os << "}}";
    }
  }
}

}  // namespace

void write_chrome_trace(const Recorder& recorder, std::ostream& os) {
  write_chrome_trace(recorder, {}, os);
}

void write_chrome_trace(const Recorder& recorder,
                        const std::vector<CounterTrack>& counters,
                        std::ostream& os) {
  os << "[";
  bool first = true;
  write_spans(os, recorder, 0, first);
  write_counters(os, counters, 0, first);
  os << "\n]\n";
}

void write_chrome_trace(const std::vector<ProcessTrack>& processes,
                        const std::vector<FlowEvent>& flows,
                        std::ostream& os) {
  os << "[";
  bool first = true;
  for (const ProcessTrack& proc : processes) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << proc.pid << ", \"args\": {\"name\": \"";
    write_escaped(os, proc.name);
    os << "\"}}";
    if (proc.recorder != nullptr) write_spans(os, *proc.recorder, proc.pid,
                                              first);
    write_counters(os, proc.counters, proc.pid, first);
  }
  for (const FlowEvent& flow : flows) {
    // A start/finish pair bound by id; "bp":"e" attaches the finish to the
    // enclosing slice so viewers draw the arrow into the dispatch span.
    for (const bool start : {true, false}) {
      if (!first) os << ",";
      first = false;
      os << "\n  {\"name\": \"";
      write_escaped(os, flow.name);
      os << "\", \"cat\": \"flow\", \"ph\": \"" << (start ? 's' : 'f')
         << "\"";
      if (!start) os << ", \"bp\": \"e\"";
      os << ", \"id\": " << flow.id << ", \"ts\": ";
      write_double(os,
                   static_cast<double>(start ? flow.from_time : flow.to_time) /
                       1e3);
      os << ", \"pid\": " << (start ? flow.from_pid : flow.to_pid)
         << ", \"tid\": 0}";
    }
  }
  os << "\n]\n";
}

std::string chrome_trace_json(const std::vector<ProcessTrack>& processes,
                              const std::vector<FlowEvent>& flows) {
  std::ostringstream os;
  write_chrome_trace(processes, flows, os);
  return os.str();
}

std::string chrome_trace_json(const Recorder& recorder) {
  return chrome_trace_json(recorder, {});
}

std::string chrome_trace_json(const Recorder& recorder,
                              const std::vector<CounterTrack>& counters) {
  std::ostringstream os;
  write_chrome_trace(recorder, counters, os);
  return os.str();
}

}  // namespace hq::trace
