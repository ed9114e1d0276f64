// Per-job lifecycle tracing (library hq_serve).
//
// A JobLifecycleTracer records the full deterministic event chain of every
// job in a serving run: arrival, the placement decision, queueing, any
// requeue/steal hops between fleet devices, dispatch, and the terminal
// state. The fleet layer (src/fleet) feeds it when metrics collection is
// on; single-device runs can use it the same way.
//
// The tracer is a passive sink — recording an event never touches the
// simulator, so an attached tracer leaves every schedule and trace::digest
// bit-identical (the zero-perturbation contract). Event times come from the
// virtual clock, so the recorded chains are byte-identical across runs and
// job counts.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.hpp"
#include "serve/job_tally.hpp"

namespace hq::serve {

/// One step in a job's life. Terminal kinds mirror JobState.
enum class JobEventKind : std::uint8_t {
  Arrived,         ///< entered the admission stream
  Placed,          ///< placement decision routed it to `device`
  Queued,          ///< entered `device`'s admission queue
  Requeued,        ///< moved `from_device` -> `device` by a health rebalance
  Stolen,          ///< moved `from_device` -> `device` by work stealing
  FailedOver,      ///< moved `from_device` -> `device` after a device went down
  Dispatched,      ///< began running on `device`
  Hedged,          ///< straggler hedge copy dispatched on `device`
  HedgeCancelled,  ///< losing hedge attempt on `device` cancelled
  /// Integrity verification re-execution dispatched on `device`
  /// (from_device = the device whose result is being checked).
  VerifyDispatched,
  /// An integrity comparison on this job mismatched: `device` is the
  /// device the vote blamed (-1 when no attribution was possible).
  CorruptionDetected,
  CompletedOk,     ///< terminal: finished within its deadline (or had none)
  CompletedLate,   ///< terminal: finished past its deadline
  ShedQueueFull,   ///< terminal: rejected by an admission queue
  ShedBreaker,     ///< terminal: rejected by an open class breaker
  ShedNoDevice,    ///< terminal: no healthy device existed at arrival
  TimedOutQueued,  ///< terminal: expired in a queue before dispatch
  Quarantined,     ///< terminal: dispatched but failed
  /// Terminal: the job's device went down and its failover budget (or the
  /// supply of healthy survivors) ran out.
  ShedFailoverExhausted,
};

const char* job_event_kind_name(JobEventKind kind);

/// The terminal event of the same name as terminal `state`; throws
/// hq::Error for Queued and Inflight.
JobEventKind terminal_event(JobState state);

struct JobEvent {
  TimeNs at = 0;
  JobEventKind kind = JobEventKind::Arrived;
  /// Device the job is on after this event; -1 when not device-bound
  /// (Arrived, ShedNoDevice).
  int device = -1;
  /// Source device of a Requeued/Stolen hop; -1 otherwise.
  int from_device = -1;
};

/// Append-only per-job event chains, indexed by job id (the arrival index).
class JobLifecycleTracer {
 public:
  void record(int job_id, TimeNs at, JobEventKind kind, int device = -1,
              int from_device = -1);

  std::size_t num_jobs() const { return jobs_.size(); }
  /// Empty for ids never recorded (including ids >= num_jobs()).
  const std::vector<JobEvent>& events(int job_id) const;

  /// Movement totals over every chain (requeue/steal/failover hop counts
  /// and hedge launches).
  std::uint64_t requeue_hops() const { return requeue_hops_; }
  std::uint64_t steal_hops() const { return steal_hops_; }
  std::uint64_t failover_hops() const { return failover_hops_; }
  std::uint64_t hedge_launches() const { return hedge_launches_; }
  std::uint64_t verify_launches() const { return verify_launches_; }
  std::uint64_t corruption_detections() const {
    return corruption_detections_;
  }

 private:
  /// Deque of chains: stable references while new jobs arrive.
  std::deque<std::vector<JobEvent>> jobs_;
  std::uint64_t requeue_hops_ = 0;
  std::uint64_t steal_hops_ = 0;
  std::uint64_t failover_hops_ = 0;
  std::uint64_t hedge_launches_ = 0;
  std::uint64_t verify_launches_ = 0;
  std::uint64_t corruption_detections_ = 0;
};

}  // namespace hq::serve
