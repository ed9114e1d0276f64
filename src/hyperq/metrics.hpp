// Performance and effective-memory-transfer-latency metrics.
//
// Paper Eq. 1–2: an application Ai consists of operations {mHD..., k..., mDH...};
// its effective memory transfer latency Le (per direction) is the span from
// the start (Tstart) of its first memory transfer to the completion (Tend)
// of its last. When transfers from other applications interleave in the copy
// queue, Le stretches far beyond the application's own service time — up to
// 8x in the paper's baseline.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "trace/trace.hpp"

namespace hq::fw {

/// Eq. 2: Tend(last transfer) - Tstart(first transfer) for one application
/// and direction, from recorded spans. nullopt when the app has no transfers
/// of that direction; a single transfer yields its own service time.
/// Order-independent: first/last are the min begin / max end over the app's
/// transfers, so spans may be recorded in any order.
std::optional<DurationNs> effective_transfer_latency(
    const trace::Recorder& recorder, int app_id, trace::SpanKind direction);

/// Sum of the application's own transfer service times for a direction (the
/// latency it would see with exclusive use of the copy engine). Zero when
/// the app has no transfers of that direction; order-independent.
DurationNs own_transfer_time(const trace::Recorder& recorder, int app_id,
                             trace::SpanKind direction);

/// The per-app numbers a harness run reads from its trace.
struct AppTransferTimes {
  std::optional<DurationNs> htod_latency;  ///< Eq. 2, HtoD
  std::optional<DurationNs> dtoh_latency;  ///< Eq. 2, DtoH
  DurationNs htod_own_time = 0;
  std::optional<TimeNs> first_activity;  ///< earliest begin of any span
};

/// The numbers of apps 0..num_apps-1 in one pass over `recorder`: entry i
/// equals the per-app scans above for app i. Spans of other app ids
/// (unattributed -1 included) are skipped.
std::vector<AppTransferTimes> app_transfer_times(
    const trace::Recorder& recorder, std::size_t num_apps);

/// The paper's improvement measure, "relative to serialized execution":
/// (t_base - t) / t_base. Positive = faster than the baseline.
double improvement(double t_base, double t);

/// Per-application timing extracted after a harness run.
struct AppMetrics {
  int app_id = -1;
  std::string type;
  /// When the child thread was launched (spawned).
  TimeNs launch_time = 0;
  /// First device activity attributed to this app.
  TimeNs first_activity = 0;
  /// Completion of the app's last operation.
  TimeNs end_time = 0;
  DurationNs htod_effective_latency = 0;
  DurationNs dtoh_effective_latency = 0;
  DurationNs htod_own_time = 0;
  Bytes htod_bytes = 0;
  Bytes dtoh_bytes = 0;
  /// Foreign HtoD transfers served inside this app's Eq.-2 window — the
  /// interleaving that stretches Le. Filled from telemetry; 0 when the run
  /// did not collect it (HarnessConfig::collect_telemetry off).
  std::uint64_t htod_interleave_count = 0;
  Bytes htod_interleave_bytes = 0;
  /// Digest of the app's host-visible outputs (functional runs only; 0
  /// otherwise). Identical workloads must produce identical digests under
  /// every scheduling mode — an hqfuzz oracle.
  std::uint64_t output_digest = 0;
  /// Set when the recovery layer gave up on this app (allocation failure,
  /// exhausted launch retries, watchdog deadline). Quarantined apps are
  /// excluded from verification; the rest of the workload still completes.
  bool quarantined = false;
  std::string quarantine_reason;
};

/// Average Le (HtoD) across applications, in nanoseconds — the quantity the
/// paper's Figure 6 plots.
double mean_htod_effective_latency(const std::vector<AppMetrics>& apps);

}  // namespace hq::fw
