// Job states and the one tally that counts how jobs ended (header-only).
//
// Goodput, throughput, deadline-miss ratio and energy per completed job all
// come from counting how many jobs ended in each terminal JobState. JobTally
// is that count: the serving and fleet reports, their per-class slices and
// check::ServeAccounting all derive from it, the fleet engine fills every
// one of them in a single drain pass over its jobs, and the fuzz oracles
// check conservation against it. JobTally::add is the only place that maps
// a state to its counter.
//
// Header-only and dependent on common/ alone, so hq_check (which hq_serve
// links) can include it without a link cycle.
#pragma once

#include <cstdint>

#include "common/check.hpp"

namespace hq::serve {

/// Terminal (and transient) states of one job.
enum class JobState : std::uint8_t {
  Queued,          ///< transient: waiting in the admission queue
  Inflight,        ///< transient: dispatched, running its lifecycle
  CompletedOk,     ///< completed within its deadline (or had none)
  CompletedLate,   ///< completed past its deadline
  ShedQueueFull,   ///< rejected by the admission queue
  ShedBreaker,     ///< rejected because the class breaker was open
  TimedOutQueued,  ///< expired in the queue before dispatch
  Quarantined,     ///< dispatched but failed (launch abort / allocation)
  /// Fleet only: every device's health breaker rejected the arrival, so
  /// no placement was possible. Never produced by a Service.
  ShedNoDevice,
  /// Fleet only: the job's device went down (crash or flap) and the
  /// per-job failover budget was exhausted — or no healthy survivor
  /// existed — before it could complete elsewhere. Never produced by a
  /// Service, which rejects crash/flap plans.
  ShedFailoverExhausted,
};

constexpr const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Inflight: return "inflight";
    case JobState::CompletedOk: return "completed-ok";
    case JobState::CompletedLate: return "completed-late";
    case JobState::ShedQueueFull: return "shed-queue-full";
    case JobState::ShedBreaker: return "shed-breaker";
    case JobState::TimedOutQueued: return "timed-out-queued";
    case JobState::Quarantined: return "quarantined";
    case JobState::ShedNoDevice: return "shed-no-device";
    case JobState::ShedFailoverExhausted: return "shed-failover-exhausted";
  }
  return "?";
}

// --- state classes ---------------------------------------------------------

/// Completed on a device, within its deadline or late.
constexpr bool is_completed(JobState s) {
  return s == JobState::CompletedOk || s == JobState::CompletedLate;
}

/// Ended by its own dispatched attempt: completed or quarantined, so its
/// dispatched_at is meaningful.
constexpr bool is_dispatched(JobState s) {
  return is_completed(s) || s == JobState::Quarantined;
}

/// Rejected: every Shed* state.
constexpr bool is_shed(JobState s) {
  return s == JobState::ShedQueueFull || s == JobState::ShedBreaker ||
         s == JobState::ShedNoDevice || s == JobState::ShedFailoverExhausted;
}

/// Ended without a winning dispatch: shed, or expired in the queue.
constexpr bool is_dropped(JobState s) {
  return is_shed(s) || s == JobState::TimedOutQueued;
}

/// Owned by the fleet, not a device, at drain: no device accounts it.
constexpr bool is_fleet_owned(JobState s) {
  return s == JobState::ShedNoDevice || s == JobState::ShedFailoverExhausted;
}

// --- the tally -------------------------------------------------------------

struct JobTally {
  std::uint64_t arrived = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_late = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_breaker = 0;
  /// Fleet-owned: arrivals rejected because no healthy device existed.
  std::uint64_t shed_no_device = 0;
  /// Fleet-owned: jobs dropped after exhausting the failover budget or the
  /// supply of healthy survivors.
  std::uint64_t shed_failover_exhausted = 0;
  std::uint64_t timed_out_queued = 0;
  std::uint64_t quarantined = 0;

  /// Counts one job that ended in `state`; a transient state is a contract
  /// violation (every job must be terminal at drain).
  void add(JobState state) {
    ++arrived;
    switch (state) {
      case JobState::CompletedOk: ++completed_ok; return;
      case JobState::CompletedLate: ++completed_late; return;
      case JobState::ShedQueueFull: ++shed_queue_full; return;
      case JobState::ShedBreaker: ++shed_breaker; return;
      case JobState::ShedNoDevice: ++shed_no_device; return;
      case JobState::ShedFailoverExhausted: ++shed_failover_exhausted; return;
      case JobState::TimedOutQueued: ++timed_out_queued; return;
      case JobState::Quarantined: ++quarantined; return;
      case JobState::Queued:
      case JobState::Inflight:
        break;
    }
    HQ_CHECK_MSG(false, "job tally: a job ended the run in non-terminal state "
                            << job_state_name(state));
  }

  std::uint64_t completed() const { return completed_ok + completed_late; }
  std::uint64_t shed() const {
    return shed_queue_full + shed_breaker + shed_no_device +
           shed_failover_exhausted;
  }
  /// Jobs past admission: every arrival that was not shed.
  std::uint64_t admitted() const { return arrived - shed(); }
  /// Jobs counted in some terminal state; equals `arrived` when conserved.
  std::uint64_t terminal() const {
    return completed() + shed() + timed_out_queued + quarantined;
  }

  JobTally& operator+=(const JobTally& o) {
    arrived += o.arrived;
    completed_ok += o.completed_ok;
    completed_late += o.completed_late;
    shed_queue_full += o.shed_queue_full;
    shed_breaker += o.shed_breaker;
    shed_no_device += o.shed_no_device;
    shed_failover_exhausted += o.shed_failover_exhausted;
    timed_out_queued += o.timed_out_queued;
    quarantined += o.quarantined;
    return *this;
  }
};

}  // namespace hq::serve
