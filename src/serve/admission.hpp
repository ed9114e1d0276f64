// Bounded admission control for the streaming serving layer
// (library hq_serve).
//
// The serving Service (src/serve/service.hpp) feeds every arrival through
// one AdmissionQueue. The queue bounds the number of jobs the service holds
// (queued + inflight); when the bound is hit a shed policy picks a victim —
// either the arriving job or a previously queued one — and the victim is
// rejected without ever touching the device (the "shed jobs consume no
// device time" invariant, checked by verify_serve_accounting).
//
// Determinism contract: shedding decisions depend only on the queue
// contents, the virtual clock, and the policy — never on host state — and
// every tie breaks on job id, so admission trajectories are bit-identical
// across runs and --jobs counts.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "common/units.hpp"

namespace hq::serve {

/// Victim-selection policy applied when the queue is full.
enum class ShedPolicy : std::uint8_t {
  /// Reject the arriving job (classic bounded-queue tail drop).
  DropTail,
  /// Shed the job with the least deadline slack among queued + arriving;
  /// jobs without a deadline never lose this comparison. Keeps the jobs
  /// most likely to still meet their SLO.
  DeadlineAware,
  /// Shed the lowest-priority job among queued + arriving (larger priority
  /// values are more important).
  Priority,
};

/// Canonical name used in CLI flags and reports ("drop-tail", "deadline",
/// "priority").
const char* shed_policy_name(ShedPolicy policy);

/// Admission-relevant view of one job.
struct QueuedJob {
  int job_id = -1;
  /// Priority class; larger = more important (Priority policy only).
  int priority = 0;
  TimeNs arrived_at = 0;
  /// Absolute deadline; 0 = no deadline.
  TimeNs deadline_at = 0;
};

/// FIFO dispatch queue with a capacity bound over queued + inflight jobs
/// and policy-driven shedding. Not a scheduler: dispatch order is always
/// arrival order; the policy only chooses who to reject under overload.
class AdmissionQueue {
 public:
  struct Config {
    /// Bound on queued + inflight jobs; 0 = unbounded (never sheds).
    std::size_t capacity = 0;
    ShedPolicy policy = ShedPolicy::DropTail;
  };

  explicit AdmissionQueue(Config config) : config_(config) {}

  const Config& config() const { return config_; }

  /// Offers an arriving job. With room (capacity 0, or queued + inflight <
  /// capacity) the job is queued and nullopt returned. Otherwise the policy
  /// picks a victim among queued jobs and the arrival: the victim is
  /// returned shed (removed from the queue if it was queued, with the
  /// arrival queued in its place).
  std::optional<QueuedJob> offer(const QueuedJob& job, TimeNs now,
                                 std::size_t inflight);

  /// Pops the oldest queued job. The queue must not be empty.
  QueuedJob pop_front();

  /// Pops the newest queued job — the work-stealing end (src/fleet): a
  /// thief takes the job that least disrupts the victim's FIFO latency
  /// ordering. The queue must not be empty.
  QueuedJob pop_back();

  /// Returns a previously popped job to the head/tail of the queue without
  /// re-counting admission or re-running the shed policy (the job was
  /// already accepted once). Used by the fleet layer when a dispatch is
  /// blocked by the device health breaker (restore_front preserves FIFO
  /// order) or a steal attempt is abandoned (restore_back reverts the
  /// pop_back). Never called on a 1-device fleet with no device breaker.
  void restore_front(const QueuedJob& job);
  void restore_back(const QueuedJob& job);

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  // --- counters (monotonic, for reports) -----------------------------------
  std::size_t peak_depth() const { return peak_depth_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t sheds() const { return sheds_; }

 private:
  Config config_;
  std::deque<QueuedJob> queue_;
  std::size_t peak_depth_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t sheds_ = 0;
};

}  // namespace hq::serve
