// Tests for the job-outcome tally (serve/job_tally.hpp) and the serve
// accounting check built on it (check/serve_invariants.hpp): each terminal
// state lands in exactly one counter, transient states are rejected, and
// each of verify_serve_accounting's three violations fires on a hand-built
// accounting.
#include "serve/job_tally.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/serve_invariants.hpp"
#include "common/check.hpp"
#include "trace/trace.hpp"

namespace hq::serve {
namespace {

constexpr JobState kTerminal[] = {
    JobState::CompletedOk,    JobState::CompletedLate,
    JobState::ShedQueueFull,  JobState::ShedBreaker,
    JobState::TimedOutQueued, JobState::Quarantined,
    JobState::ShedNoDevice,   JobState::ShedFailoverExhausted,
};

std::vector<std::uint64_t> counters(const JobTally& t) {
  return {t.completed_ok,    t.completed_late, t.shed_queue_full,
          t.shed_breaker,    t.timed_out_queued, t.quarantined,
          t.shed_no_device,  t.shed_failover_exhausted};
}

TEST(JobTallyTest, EachTerminalStateLandsInExactlyOneCounter) {
  for (std::size_t i = 0; i < std::size(kTerminal); ++i) {
    JobTally t;
    t.add(kTerminal[i]);
    const std::vector<std::uint64_t> c = counters(t);
    for (std::size_t j = 0; j < c.size(); ++j) {
      EXPECT_EQ(c[j], i == j ? 1u : 0u)
          << job_state_name(kTerminal[i]) << " counter " << j;
    }
    EXPECT_EQ(t.arrived, 1u) << job_state_name(kTerminal[i]);
    EXPECT_EQ(t.terminal(), 1u) << job_state_name(kTerminal[i]);
  }
}

TEST(JobTallyTest, RejectsTransientStates) {
  JobTally t;
  EXPECT_THROW(t.add(JobState::Queued), hq::Error);
  EXPECT_THROW(t.add(JobState::Inflight), hq::Error);
  EXPECT_EQ(t.terminal(), 0u);
}

TEST(JobTallyTest, DerivedCountsAndSum) {
  JobTally a;
  a.add(JobState::CompletedOk);
  a.add(JobState::CompletedOk);
  a.add(JobState::CompletedLate);
  a.add(JobState::ShedQueueFull);
  a.add(JobState::TimedOutQueued);
  JobTally b;
  b.add(JobState::ShedBreaker);
  b.add(JobState::ShedNoDevice);
  b.add(JobState::ShedFailoverExhausted);
  b.add(JobState::Quarantined);

  EXPECT_EQ(a.completed(), 3u);
  EXPECT_EQ(a.shed(), 1u);
  EXPECT_EQ(a.admitted(), 4u);
  EXPECT_EQ(b.shed(), 3u);
  EXPECT_EQ(b.admitted(), 1u);

  a += b;
  EXPECT_EQ(a.arrived, 9u);
  EXPECT_EQ(a.terminal(), 9u);
  EXPECT_EQ(a.completed(), 3u);
  EXPECT_EQ(a.shed(), 4u);
  EXPECT_EQ(a.admitted(), 5u);
  EXPECT_EQ(counters(a), (std::vector<std::uint64_t>{2, 1, 1, 1, 1, 1, 1, 1}));
}

TEST(JobTallyTest, StateClassesPartitionTerminalStates) {
  for (const JobState s : kTerminal) {
    EXPECT_NE(is_dispatched(s), is_dropped(s)) << job_state_name(s);
    if (is_completed(s)) {
      EXPECT_TRUE(is_dispatched(s)) << job_state_name(s);
    }
    if (is_shed(s) || is_fleet_owned(s)) {
      EXPECT_TRUE(is_dropped(s)) << job_state_name(s);
    }
  }
  EXPECT_FALSE(is_dropped(JobState::Queued));
  EXPECT_FALSE(is_dispatched(JobState::Inflight));
}

// --- verify_serve_accounting -----------------------------------------------

/// A conserved accounting: two completions, one shed job that never
/// dispatched (app 7) and one that shed after a dispatch.
check::ServeAccounting conserved() {
  check::ServeAccounting acc;
  acc.add(JobState::CompletedOk);
  acc.add(JobState::CompletedLate);
  acc.add(JobState::ShedQueueFull);
  acc.undispatched_apps.push_back(7);
  acc.add(JobState::ShedFailoverExhausted);
  ++acc.shed_after_dispatch;
  return acc;
}

/// A recorder with spans for apps 1 and 2 only.
trace::Recorder recorder_of_served_apps() {
  trace::Recorder rec;
  rec.add(0, 1, trace::SpanKind::Kernel, "k", 0, 10);
  rec.add(0, 2, trace::SpanKind::MemcpyHtoD, "h", 10, 20);
  return rec;
}

TEST(ServeAccountingCheckTest, ConservedAccountingPasses) {
  const trace::Recorder rec = recorder_of_served_apps();
  EXPECT_TRUE(check::verify_serve_accounting(conserved(), &rec).empty());
  EXPECT_TRUE(check::verify_serve_accounting(conserved(), nullptr).empty());
}

TEST(ServeAccountingCheckTest, FlagsConservationViolation) {
  check::ServeAccounting acc = conserved();
  ++acc.arrived;  // an arrival that reached no terminal state
  const std::vector<std::string> v =
      check::verify_serve_accounting(acc, nullptr);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("arrived 5 != accounted 4"), std::string::npos) << v[0];
}

TEST(ServeAccountingCheckTest, FlagsUndispatchedCountMismatch) {
  check::ServeAccounting acc = conserved();
  acc.undispatched_apps.push_back(8);  // one id more than dropped jobs
  const std::vector<std::string> v =
      check::verify_serve_accounting(acc, nullptr);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("2 undispatched app ids + 1 shed after dispatch"),
            std::string::npos)
      << v[0];
  EXPECT_NE(v[0].find("but 2 jobs were shed or expired"), std::string::npos)
      << v[0];
}

TEST(ServeAccountingCheckTest, FlagsShedJobThatOwnsSpans) {
  trace::Recorder rec = recorder_of_served_apps();
  rec.add(1, 7, trace::SpanKind::MemcpyDtoH, "d", 20, 30);
  rec.add(1, 7, trace::SpanKind::Kernel, "k", 30, 40);
  const std::vector<std::string> v =
      check::verify_serve_accounting(conserved(), &rec);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("shed job 7 owns 2 trace span(s)"), std::string::npos)
      << v[0];
}

}  // namespace
}  // namespace hq::serve
