#include "obs/telemetry.hpp"

#include <algorithm>
#include <map>

namespace hq::obs {

namespace {

/// Queue-wait buckets: 1us .. 1s in decades, in nanoseconds. Copy waits in
/// the paper's regime (Fig. 6) span microseconds (uncontended) to hundreds
/// of milliseconds (32-app interleaving), so decades resolve the spread.
std::vector<double> wait_bounds() {
  return {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
}

}  // namespace

TelemetryObserver::TelemetryObserver(const gpu::DeviceSpec& spec)
    : spec_(spec) {
  // Register every metric up front so the export order (registration order)
  // is fixed by construction, independent of which events a run produces.
  const auto op = [](gpu::ObservedOp kind) { return static_cast<int>(kind); };
  const int htod = static_cast<int>(gpu::CopyDirection::HtoD);
  const int dtoh = static_cast<int>(gpu::CopyDirection::DtoH);
  ops_submitted_[op(gpu::ObservedOp::Kernel)] =
      &registry_.counter("ops_submitted_kernel", "kernel launches submitted");
  ops_submitted_[op(gpu::ObservedOp::Copy)] =
      &registry_.counter("ops_submitted_copy", "memory copies submitted");
  ops_submitted_[op(gpu::ObservedOp::Marker)] =
      &registry_.counter("ops_submitted_marker", "markers/events submitted");
  ops_completed_ =
      &registry_.counter("ops_completed", "operations retired from streams");
  copies_[htod] =
      &registry_.counter("copies_htod", "host-to-device transfers enqueued");
  copies_[dtoh] =
      &registry_.counter("copies_dtoh", "device-to-host transfers enqueued");
  bytes_[htod] =
      &registry_.counter("bytes_htod", "host-to-device bytes enqueued");
  bytes_[dtoh] =
      &registry_.counter("bytes_dtoh", "device-to-host bytes enqueued");
  kernels_completed_ =
      &registry_.counter("kernels_completed", "kernels fully retired");
  blocks_placed_ =
      &registry_.counter("blocks_placed", "thread blocks placed on SMXs");
  queue_wait_[htod] =
      &registry_.histogram("copy_queue_wait_htod_ns", wait_bounds(),
                           "HtoD enqueue-to-service-begin wait (ns)");
  queue_wait_[dtoh] =
      &registry_.histogram("copy_queue_wait_dtoh_ns", wait_bounds(),
                           "DtoH enqueue-to-service-begin wait (ns)");
  queue_depth_series_[htod] = &registry_.series(
      "copy_queue_depth_htod",
      "HtoD engine queue depth incl. in-service transaction");
  queue_depth_series_[dtoh] = &registry_.series(
      "copy_queue_depth_dtoh",
      "DtoH engine queue depth incl. in-service transaction");
  resident_blocks_series_ = &registry_.series(
      "resident_blocks", "device-wide resident thread blocks (cap 208 on K20)");
  thread_occupancy_series_ = &registry_.series(
      "thread_occupancy", "resident threads / device maximum, in [0,1]");
  power_series_ = &registry_.series(
      "power_watts", "instantaneous board power, piecewise constant");
  registry_.gauge("energy_joules", "energy integral over the whole run");
  // Fault-injection accounting (all zero without a fault plan; registered
  // unconditionally so the export schema never depends on the plan).
  const auto fault = [this](gpu::ObservedFault kind) -> Counter*& {
    return fault_counters_[static_cast<int>(kind)];
  };
  fault(gpu::ObservedFault::CopyStall) =
      &registry_.counter("faults_copy_stall", "injected copy-engine stalls");
  fault(gpu::ObservedFault::CopySlowdown) = &registry_.counter(
      "faults_copy_slowdown", "injected per-transfer slowdowns");
  fault(gpu::ObservedFault::CopyThrottle) = &registry_.counter(
      "faults_copy_throttle", "copies stretched by a power-cap throttle window");
  fault(gpu::ObservedFault::LaunchFailure) = &registry_.counter(
      "faults_launch_failure", "transient kernel-launch submission failures");
  fault(gpu::ObservedFault::LaunchAbort) = &registry_.counter(
      "faults_launch_abort", "launches abandoned after exhausting retries");
  fault(gpu::ObservedFault::HostAllocFailure) = &registry_.counter(
      "faults_host_alloc", "injected pinned host-allocation failures");
  fault_penalty_ = &registry_.counter("fault_penalty_ns",
                                      "total extra service time injected (ns)");
  fault_events_series_ = &registry_.series(
      "fault_events", "cumulative injected fault events over virtual time");
}

void TelemetryObserver::on_op_submitted(TimeNs /*now*/, gpu::OpId /*op*/,
                                        gpu::StreamId /*stream*/,
                                        gpu::ObservedOp kind) {
  ++events_observed_;
  ops_submitted_[static_cast<int>(kind)]->add();
}

void TelemetryObserver::on_op_completed(TimeNs /*now*/, gpu::OpId /*op*/,
                                        gpu::StreamId /*stream*/) {
  ++events_observed_;
  ops_completed_->add();
}

void TelemetryObserver::on_copy_enqueued(TimeNs now, gpu::CopyDirection dir,
                                         gpu::OpId op,
                                         gpu::StreamId /*stream*/,
                                         std::int32_t /*app*/, Bytes bytes) {
  ++events_observed_;
  const int d = static_cast<int>(dir);
  copies_[d]->add();
  bytes_[d]->add(bytes);
  enqueue_time_.emplace(op, now);
  ++queue_depth_[d];
  queue_depth_series_[d]->sample(now, static_cast<double>(queue_depth_[d]));
}

void TelemetryObserver::on_copy_served(TimeNs now, gpu::CopyDirection dir,
                                       gpu::OpId op, std::int32_t app,
                                       TimeNs begin, TimeNs end, Bytes bytes) {
  ++events_observed_;
  const int d = static_cast<int>(dir);
  if (const auto it = enqueue_time_.find(op); it != enqueue_time_.end()) {
    queue_wait_[d]->record(static_cast<double>(begin - it->second));
    enqueue_time_.erase(it);
  }
  --queue_depth_[d];
  queue_depth_series_[d]->sample(now, static_cast<double>(queue_depth_[d]));
  if (dir == gpu::CopyDirection::HtoD) {
    htod_served_.push_back(CopyRec{app, begin, end, bytes});
  }
}

void TelemetryObserver::on_blocks_placed(TimeNs now, gpu::OpId /*op*/,
                                         int /*smx*/, int count,
                                         const gpu::BlockDemand& demand) {
  ++events_observed_;
  blocks_placed_->add(static_cast<std::uint64_t>(count));
  resident_blocks_ += count;
  resident_threads_ += static_cast<std::int64_t>(count) * demand.threads;
  sample_occupancy(now);
}

void TelemetryObserver::on_blocks_released(TimeNs now, gpu::OpId /*op*/,
                                           int /*smx*/, int count,
                                           const gpu::BlockDemand& demand) {
  ++events_observed_;
  resident_blocks_ -= count;
  resident_threads_ -= static_cast<std::int64_t>(count) * demand.threads;
  sample_occupancy(now);
}

void TelemetryObserver::sample_occupancy(TimeNs now) {
  resident_blocks_series_->sample(now, static_cast<double>(resident_blocks_));
  thread_occupancy_series_->sample(
      now, static_cast<double>(resident_threads_) /
               spec_.max_resident_threads());
}

void TelemetryObserver::on_kernel_completed(TimeNs /*now*/,
                                            const gpu::KernelExec& /*exec*/) {
  ++events_observed_;
  kernels_completed_->add();
}

void TelemetryObserver::on_power_integrated(TimeNs now, Watts power,
                                            double /*occupancy*/) {
  ++events_observed_;
  // `power` was in effect over [power_segment_begin_, now]: sample it at the
  // segment *begin* so the series is the true piecewise-constant trajectory.
  power_series_->sample(power_segment_begin_, static_cast<double>(power));
  energy_j_ += power * static_cast<double>(now - power_segment_begin_) * 1e-9;
  power_segment_begin_ = now;
}

void TelemetryObserver::on_fault_injected(TimeNs now, gpu::ObservedFault kind,
                                          std::uint64_t /*key*/,
                                          DurationNs penalty) {
  ++events_observed_;
  Counter*& counter = fault_counters_[static_cast<int>(kind)];
  if (counter == nullptr) {
    // Only the SDC counters are left unregistered; the first SDC fault of
    // each kind appends it to the export.
    counter = &registry_.counter(kind == gpu::ObservedFault::SdcCopyCorruption
                                     ? "faults_sdc_copy"
                                     : "faults_sdc_kernel");
  }
  counter->add();
  fault_penalty_->add(penalty);
  ++fault_events_seen_;
  fault_events_series_->sample(now, static_cast<double>(fault_events_seen_));
}

void TelemetryObserver::finalize() {
  if (finalized_) return;
  finalized_ = true;
  registry_.gauge("energy_joules").set(energy_j_);

  // Service completions arrive in begin order (FIFO engine), but re-sorting
  // keeps the attribution correct even for synthetic event streams.
  std::stable_sort(htod_served_.begin(), htod_served_.end(),
                   [](const CopyRec& a, const CopyRec& b) {
                     return a.begin < b.begin;
                   });

  std::map<std::int32_t, AppAttribution> by_app;
  for (const CopyRec& r : htod_served_) {
    if (r.app < 0) continue;
    auto [it, fresh] = by_app.try_emplace(r.app);
    AppAttribution& a = it->second;
    if (fresh) {
      a.app_id = r.app;
      a.htod_window_begin = r.begin;
      a.htod_window_end = r.end;
    } else {
      a.htod_window_begin = std::min(a.htod_window_begin, r.begin);
      a.htod_window_end = std::max(a.htod_window_end, r.end);
    }
    ++a.own_htod_count;
    a.own_htod_bytes += r.bytes;
  }

  attribution_.clear();
  attribution_.reserve(by_app.size());
  for (auto& [id, a] : by_app) {
    // FIFO service intervals never overlap each other, so sorting by begin
    // also sorts by end: binary-search the first record that can reach into
    // the window, then scan only while records still start inside it. Total
    // cost O(A log M + overlap), not O(A * M).
    const auto first = std::partition_point(
        htod_served_.begin(), htod_served_.end(),
        [&](const CopyRec& r) { return r.end <= a.htod_window_begin; });
    for (auto it = first;
         it != htod_served_.end() && it->begin < a.htod_window_end; ++it) {
      if (it->app == id || it->end <= a.htod_window_begin) continue;
      ++a.foreign_htod_count;
      a.foreign_htod_bytes += it->bytes;
    }
    attribution_.push_back(a);
  }
}

}  // namespace hq::obs
