// TelemetryObserver: run-wide counters, time-series, and per-app
// interleave attribution derived from the device event stream.
//
// The paper's core results are all explained by hidden device state:
// copy-queue interleaving stretches effective transfer latency Le up to 8x
// (Eq. 1-2, Figs. 1/6), LEFTOVER placement governs oversubscription
// (Figs. 4/5), and power tracks concurrency (Figs. 9/10). This observer
// makes that state inspectable: it attaches to a gpu::Device (alongside the
// invariant checker, through ObserverFanout) and derives
//
//   * per-direction copy-queue depth series (queued + in-service),
//   * per-transaction queue-wait histograms (service begin - enqueue),
//   * resident-block and thread-occupancy series,
//   * the piecewise-constant power trajectory and its energy integral,
//   * submission/completion counters per op kind and direction,
//   * per-app HtoD interleave attribution: the count and bytes of *foreign*
//     transfers served inside each app's [Tstart, Tend] HtoD window — the
//     mechanistic cause of the Le stretch the paper infers from profiles.
//
// Zero-perturbation contract: the observer never mutates device state, so
// attaching it leaves the simulated schedule — and every trace::digest —
// bit-identical. Pinned golden tests prove this.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/observer.hpp"
#include "obs/metrics.hpp"

namespace hq::obs {

/// Copy-queue interleaving attributed to one application (HtoD direction,
/// the one the paper's Eq. 1-2 and Figure 6 analyse).
struct AppAttribution {
  std::int32_t app_id = -1;
  /// Eq. 1-2 window: service begin of the app's first HtoD transfer to
  /// service end of its last (Tstart, Tend).
  TimeNs htod_window_begin = 0;
  TimeNs htod_window_end = 0;
  std::uint64_t own_htod_count = 0;
  Bytes own_htod_bytes = 0;
  /// Foreign HtoD transfers whose service interval lands inside the window.
  std::uint64_t foreign_htod_count = 0;
  Bytes foreign_htod_bytes = 0;
};

class TelemetryObserver final : public gpu::DeviceObserver {
 public:
  explicit TelemetryObserver(const gpu::DeviceSpec& spec);
  // The instrument handles below point into registry_.
  TelemetryObserver(const TelemetryObserver&) = delete;
  TelemetryObserver& operator=(const TelemetryObserver&) = delete;

  // --- gpu::DeviceObserver -------------------------------------------------
  void on_op_submitted(TimeNs now, gpu::OpId op, gpu::StreamId stream,
                       gpu::ObservedOp kind) override;
  void on_op_completed(TimeNs now, gpu::OpId op, gpu::StreamId stream) override;
  void on_copy_enqueued(TimeNs now, gpu::CopyDirection dir, gpu::OpId op,
                        gpu::StreamId stream, std::int32_t app,
                        Bytes bytes) override;
  void on_copy_served(TimeNs now, gpu::CopyDirection dir, gpu::OpId op,
                      std::int32_t app, TimeNs begin, TimeNs end,
                      Bytes bytes) override;
  void on_blocks_placed(TimeNs now, gpu::OpId op, int smx, int count,
                        const gpu::BlockDemand& demand) override;
  void on_blocks_released(TimeNs now, gpu::OpId op, int smx, int count,
                          const gpu::BlockDemand& demand) override;
  void on_kernel_completed(TimeNs now, const gpu::KernelExec& exec) override;
  void on_power_integrated(TimeNs now, Watts power, double occupancy) override;
  void on_fault_injected(TimeNs now, gpu::ObservedFault kind,
                         std::uint64_t key, DurationNs penalty) override;

  /// Computes the per-app attribution and closes the power series; call once
  /// after the simulation drains. Idempotent.
  void finalize();

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  /// Valid after finalize(); sorted by app_id, unattributed (-1) excluded.
  const std::vector<AppAttribution>& attribution() const {
    return attribution_;
  }
  std::uint64_t events_observed() const { return events_observed_; }

 private:
  /// Samples the resident-block and thread-occupancy series at `now`.
  void sample_occupancy(TimeNs now);

  struct CopyRec {
    std::int32_t app = -1;
    TimeNs begin = 0;
    TimeNs end = 0;
    Bytes bytes = 0;
  };

  gpu::DeviceSpec spec_;
  MetricsRegistry registry_;

  // Instruments resolved once in the constructor, so no callback looks a
  // name up (the registry's deque keeps the references stable). Per-kind
  // and per-direction arrays are indexed by ObservedOp / CopyDirection.
  Counter* ops_submitted_[3] = {};
  Counter* ops_completed_ = nullptr;
  Counter* copies_[2] = {};
  Counter* bytes_[2] = {};
  Counter* kernels_completed_ = nullptr;
  Counter* blocks_placed_ = nullptr;
  Histogram* queue_wait_[2] = {};
  Series* queue_depth_series_[2] = {};
  Series* resident_blocks_series_ = nullptr;
  Series* thread_occupancy_series_ = nullptr;
  Series* power_series_ = nullptr;
  /// Indexed by ObservedFault. The two SDC counters stay null until the
  /// first SDC fault registers them, so their export position depends on
  /// the run and runs without one never list them.
  Counter* fault_counters_[gpu::kNumObservedFaults] = {};
  Counter* fault_penalty_ = nullptr;
  Series* fault_events_series_ = nullptr;

  std::uint64_t events_observed_ = 0;
  std::uint64_t fault_events_seen_ = 0;
  bool finalized_ = false;

  // Copy-queue state, indexed by CopyDirection.
  std::int64_t queue_depth_[2] = {0, 0};
  std::unordered_map<gpu::OpId, TimeNs> enqueue_time_;

  // Block-scheduler occupancy state.
  std::int64_t resident_blocks_ = 0;
  std::int64_t resident_threads_ = 0;

  // Power integration: the observed value is piecewise constant over
  // [power_segment_begin_, now].
  TimeNs power_segment_begin_ = 0;
  Joules energy_j_ = 0.0;

  /// Served HtoD transfers in service order (FIFO ⇒ non-overlapping and
  /// sorted by begin and by end), the input to the attribution pass.
  std::vector<CopyRec> htod_served_;
  std::vector<AppAttribution> attribution_;
};

}  // namespace hq::obs
