#include "serve/lifecycle.hpp"

#include "common/check.hpp"

namespace hq::serve {

const char* job_event_kind_name(JobEventKind kind) {
  switch (kind) {
    case JobEventKind::Arrived: return "arrived";
    case JobEventKind::Placed: return "placed";
    case JobEventKind::Queued: return "queued";
    case JobEventKind::Requeued: return "requeued";
    case JobEventKind::Stolen: return "stolen";
    case JobEventKind::FailedOver: return "failed-over";
    case JobEventKind::Dispatched: return "dispatched";
    case JobEventKind::Hedged: return "hedged";
    case JobEventKind::HedgeCancelled: return "hedge-cancelled";
    case JobEventKind::VerifyDispatched: return "verify-dispatched";
    case JobEventKind::CorruptionDetected: return "corruption-detected";
    case JobEventKind::CompletedOk: return "completed-ok";
    case JobEventKind::CompletedLate: return "completed-late";
    case JobEventKind::ShedQueueFull: return "shed-queue-full";
    case JobEventKind::ShedBreaker: return "shed-breaker";
    case JobEventKind::ShedNoDevice: return "shed-no-device";
    case JobEventKind::TimedOutQueued: return "timed-out-queued";
    case JobEventKind::Quarantined: return "quarantined";
    case JobEventKind::ShedFailoverExhausted:
      return "shed-failover-exhausted";
  }
  return "?";
}

JobEventKind terminal_event(JobState state) {
  using K = JobEventKind;
  switch (state) {
    case JobState::CompletedOk: return K::CompletedOk;
    case JobState::CompletedLate: return K::CompletedLate;
    case JobState::ShedQueueFull: return K::ShedQueueFull;
    case JobState::ShedBreaker: return K::ShedBreaker;
    case JobState::TimedOutQueued: return K::TimedOutQueued;
    case JobState::Quarantined: return K::Quarantined;
    case JobState::ShedNoDevice: return K::ShedNoDevice;
    case JobState::ShedFailoverExhausted:
      return K::ShedFailoverExhausted;
    case JobState::Queued:
    case JobState::Inflight: break;
  }
  HQ_CHECK_MSG(false, "not a terminal job state: " << job_state_name(state));
  return K::Arrived;
}

void JobLifecycleTracer::record(int job_id, TimeNs at, JobEventKind kind,
                                int device, int from_device) {
  HQ_CHECK_MSG(job_id >= 0, "lifecycle tracer: bad job id " << job_id);
  if (static_cast<std::size_t>(job_id) >= jobs_.size()) {
    jobs_.resize(static_cast<std::size_t>(job_id) + 1);
  }
  std::vector<JobEvent>& chain = jobs_[static_cast<std::size_t>(job_id)];
  HQ_CHECK_MSG(chain.empty() || chain.back().at <= at,
               "lifecycle tracer: job " << job_id
                                        << " recorded backwards in time");
  chain.push_back(JobEvent{at, kind, device, from_device});
  if (kind == JobEventKind::Requeued) ++requeue_hops_;
  if (kind == JobEventKind::Stolen) ++steal_hops_;
  if (kind == JobEventKind::FailedOver) ++failover_hops_;
  if (kind == JobEventKind::Hedged) ++hedge_launches_;
  if (kind == JobEventKind::VerifyDispatched) ++verify_launches_;
  if (kind == JobEventKind::CorruptionDetected) ++corruption_detections_;
}

const std::vector<JobEvent>& JobLifecycleTracer::events(int job_id) const {
  static const std::vector<JobEvent> kEmpty;
  if (job_id < 0 || static_cast<std::size_t>(job_id) >= jobs_.size()) {
    return kEmpty;
  }
  return jobs_[static_cast<std::size_t>(job_id)];
}

}  // namespace hq::serve
