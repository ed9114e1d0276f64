#include "hyperq/metrics.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace hq::fw {

namespace {

// Shared Eq. 2 accumulator: window edges are the min begin / max end seen,
// so the result does not depend on span recording order (copy completions
// can be recorded out of begin order when engines interleave).
struct LatencyWindow {
  std::optional<TimeNs> first_start;
  std::optional<TimeNs> last_end;

  void observe(const trace::Span& s) {
    first_start = first_start ? std::min(*first_start, s.begin) : s.begin;
    last_end = last_end ? std::max(*last_end, s.end) : s.end;
  }
  std::optional<DurationNs> latency() const {
    if (!first_start) return std::nullopt;
    return *last_end - *first_start;
  }
};

void check_direction(trace::SpanKind direction) {
  HQ_CHECK(direction == trace::SpanKind::MemcpyHtoD ||
           direction == trace::SpanKind::MemcpyDtoH);
}

}  // namespace

std::optional<DurationNs> effective_transfer_latency(
    const trace::Recorder& recorder, int app_id, trace::SpanKind direction) {
  check_direction(direction);
  LatencyWindow window;
  recorder.for_each_app(app_id, [&](const trace::Span& s) {
    if (s.kind == direction) window.observe(s);
  });
  return window.latency();
}

std::optional<DurationNs> effective_transfer_latency(
    const trace::AppIndex& index, int app_id, trace::SpanKind direction) {
  check_direction(direction);
  LatencyWindow window;
  for (const trace::Span& s : index.spans_for(app_id)) {
    if (s.kind == direction) window.observe(s);
  }
  return window.latency();
}

DurationNs own_transfer_time(const trace::Recorder& recorder, int app_id,
                             trace::SpanKind direction) {
  DurationNs total = 0;
  recorder.for_each_app(app_id, [&](const trace::Span& s) {
    if (s.kind == direction) total += s.duration();
  });
  return total;
}

DurationNs own_transfer_time(const trace::AppIndex& index, int app_id,
                             trace::SpanKind direction) {
  DurationNs total = 0;
  for (const trace::Span& s : index.spans_for(app_id)) {
    if (s.kind == direction) total += s.duration();
  }
  return total;
}

double improvement(double t_base, double t) {
  HQ_CHECK(t_base > 0);
  return (t_base - t) / t_base;
}

double mean_htod_effective_latency(const std::vector<AppMetrics>& apps) {
  if (apps.empty()) return 0.0;
  double sum = 0.0;
  for (const AppMetrics& a : apps) {
    sum += static_cast<double>(a.htod_effective_latency);
  }
  return sum / static_cast<double>(apps.size());
}

}  // namespace hq::fw
