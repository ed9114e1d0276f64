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

}  // namespace

std::optional<DurationNs> effective_transfer_latency(
    const trace::Recorder& recorder, int app_id, trace::SpanKind direction) {
  HQ_CHECK(direction == trace::SpanKind::MemcpyHtoD ||
           direction == trace::SpanKind::MemcpyDtoH);
  LatencyWindow window;
  recorder.for_each_app(app_id, [&](const trace::Span& s) {
    if (s.kind == direction) window.observe(s);
  });
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

std::vector<AppTransferTimes> app_transfer_times(
    const trace::Recorder& recorder, std::size_t num_apps) {
  std::vector<LatencyWindow> htod(num_apps), dtoh(num_apps);
  std::vector<AppTransferTimes> out(num_apps);
  for (const trace::Span s : recorder) {
    if (s.app_id < 0 || static_cast<std::size_t>(s.app_id) >= num_apps) {
      continue;
    }
    const auto i = static_cast<std::size_t>(s.app_id);
    AppTransferTimes& app = out[i];
    app.first_activity =
        app.first_activity ? std::min(*app.first_activity, s.begin) : s.begin;
    if (s.kind == trace::SpanKind::MemcpyHtoD) {
      htod[i].observe(s);
      app.htod_own_time += s.duration();
    } else if (s.kind == trace::SpanKind::MemcpyDtoH) {
      dtoh[i].observe(s);
    }
  }
  for (std::size_t i = 0; i < num_apps; ++i) {
    out[i].htod_latency = htod[i].latency();
    out[i].dtoh_latency = dtoh[i].latency();
  }
  return out;
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
