#include "serve/admission.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace hq::serve {

const char* shed_policy_name(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::DropTail: return "drop-tail";
    case ShedPolicy::DeadlineAware: return "deadline";
    case ShedPolicy::Priority: return "priority";
  }
  return "?";
}

namespace {

/// Remaining time to the deadline (negative once missed). Jobs without a
/// deadline report infinite slack, so they never lose a deadline-aware
/// comparison.
std::int64_t slack_of(const QueuedJob& job, TimeNs now) {
  if (job.deadline_at == 0) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(job.deadline_at) -
         static_cast<std::int64_t>(now);
}

/// True when `a` should be shed in preference to `b`. Ties break on the
/// larger job id (the newest job), which also makes the arriving job the
/// victim when every candidate looks identical.
bool sheds_before(const QueuedJob& a, const QueuedJob& b, ShedPolicy policy,
                  TimeNs now) {
  if (policy == ShedPolicy::DeadlineAware) {
    const std::int64_t sa = slack_of(a, now);
    const std::int64_t sb = slack_of(b, now);
    if (sa != sb) return sa < sb;
  } else if (policy == ShedPolicy::Priority) {
    if (a.priority != b.priority) return a.priority < b.priority;
  }
  return a.job_id > b.job_id;
}

}  // namespace

std::optional<QueuedJob> AdmissionQueue::offer(const QueuedJob& job, TimeNs now,
                                               std::size_t inflight) {
  if (config_.capacity == 0 || queue_.size() + inflight < config_.capacity) {
    queue_.push_back(job);
    ++accepted_;
    peak_depth_ = std::max(peak_depth_, queue_.size());
    return std::nullopt;
  }

  ++sheds_;
  if (config_.policy == ShedPolicy::DropTail || queue_.empty()) {
    // DropTail always rejects the arrival; the other policies fall back to
    // it when there is no queued candidate to displace.
    return job;
  }

  const QueuedJob* worst = &job;
  std::size_t worst_index = queue_.size();  // sentinel: the arrival
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (sheds_before(queue_[i], *worst, config_.policy, now)) {
      worst = &queue_[i];
      worst_index = i;
    }
  }
  if (worst_index == queue_.size()) return job;

  const QueuedJob victim = queue_[worst_index];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(worst_index));
  queue_.push_back(job);
  ++accepted_;
  return victim;
}

QueuedJob AdmissionQueue::pop_front() {
  HQ_CHECK_MSG(!queue_.empty(), "AdmissionQueue::pop_front on an empty queue");
  const QueuedJob job = queue_.front();
  queue_.pop_front();
  return job;
}

QueuedJob AdmissionQueue::pop_back() {
  HQ_CHECK_MSG(!queue_.empty(), "AdmissionQueue::pop_back on an empty queue");
  const QueuedJob job = queue_.back();
  queue_.pop_back();
  return job;
}

void AdmissionQueue::restore_front(const QueuedJob& job) {
  queue_.push_front(job);
  peak_depth_ = std::max(peak_depth_, queue_.size());
}

void AdmissionQueue::restore_back(const QueuedJob& job) {
  queue_.push_back(job);
  peak_depth_ = std::max(peak_depth_, queue_.size());
}

}  // namespace hq::serve
