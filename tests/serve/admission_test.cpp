#include "serve/admission.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/units.hpp"
#include "serve/service.hpp"

namespace hq::serve {
namespace {

QueuedJob job(int id, int priority = 0, TimeNs arrived = 0,
              TimeNs deadline = 0) {
  QueuedJob j;
  j.job_id = id;
  j.priority = priority;
  j.arrived_at = arrived;
  j.deadline_at = deadline;
  return j;
}

TEST(AdmissionQueueTest, UnboundedNeverSheds) {
  AdmissionQueue queue({/*capacity=*/0, ShedPolicy::DropTail});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(queue.offer(job(i), /*now=*/0, /*inflight=*/1000));
  }
  EXPECT_EQ(queue.size(), 100u);
  EXPECT_EQ(queue.accepted(), 100u);
  EXPECT_EQ(queue.sheds(), 0u);
  EXPECT_EQ(queue.peak_depth(), 100u);
}

TEST(AdmissionQueueTest, CapacityCountsInflight) {
  AdmissionQueue queue({/*capacity=*/4, ShedPolicy::DropTail});
  // 3 inflight + 1 queued == capacity; the next arrival is shed.
  EXPECT_FALSE(queue.offer(job(0), 0, /*inflight=*/3));
  const auto victim = queue.offer(job(1), 0, /*inflight=*/3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->job_id, 1);
  EXPECT_EQ(queue.sheds(), 1u);
}

TEST(AdmissionQueueTest, DropTailShedsTheArrival) {
  AdmissionQueue queue({/*capacity=*/2, ShedPolicy::DropTail});
  EXPECT_FALSE(queue.offer(job(0), 0, 0));
  EXPECT_FALSE(queue.offer(job(1), 0, 0));
  const auto victim = queue.offer(job(2), 0, 0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->job_id, 2);  // the new arrival, never a queued job
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop_front().job_id, 0);  // FIFO survives intact
  EXPECT_EQ(queue.pop_front().job_id, 1);
}

TEST(AdmissionQueueTest, DeadlineAwareShedsLeastSlack) {
  AdmissionQueue queue({/*capacity=*/2, ShedPolicy::DeadlineAware});
  EXPECT_FALSE(queue.offer(job(0, 0, 0, /*deadline=*/100), 0, 0));
  EXPECT_FALSE(queue.offer(job(1, 0, 0, /*deadline=*/900), 0, 0));
  // Arrival has more slack than job 0, so job 0 (tightest deadline, least
  // likely to make it) is evicted in its favor.
  const auto victim = queue.offer(job(2, 0, 0, /*deadline=*/500), /*now=*/50, 0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->job_id, 0);
  EXPECT_EQ(queue.pop_front().job_id, 1);
  EXPECT_EQ(queue.pop_front().job_id, 2);
}

TEST(AdmissionQueueTest, DeadlineAwareTreatsNoDeadlineAsInfiniteSlack) {
  AdmissionQueue queue({/*capacity=*/1, ShedPolicy::DeadlineAware});
  EXPECT_FALSE(queue.offer(job(0, 0, 0, /*deadline=*/0), 0, 0));
  // The arrival has a finite deadline; the queued no-deadline job survives.
  const auto victim = queue.offer(job(1, 0, 0, /*deadline=*/500), 0, 0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->job_id, 1);
}

TEST(AdmissionQueueTest, PriorityShedsLowestPriority) {
  AdmissionQueue queue({/*capacity=*/2, ShedPolicy::Priority});
  EXPECT_FALSE(queue.offer(job(0, /*priority=*/5), 0, 0));
  EXPECT_FALSE(queue.offer(job(1, /*priority=*/1), 0, 0));
  const auto victim = queue.offer(job(2, /*priority=*/3), 0, 0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->job_id, 1);  // lowest priority in queue ∪ {arrival}
  EXPECT_EQ(queue.pop_front().job_id, 0);
  EXPECT_EQ(queue.pop_front().job_id, 2);
}

TEST(AdmissionQueueTest, TieBreaksOnNewestJobId) {
  AdmissionQueue queue({/*capacity=*/2, ShedPolicy::Priority});
  EXPECT_FALSE(queue.offer(job(0, 2), 0, 0));
  EXPECT_FALSE(queue.offer(job(1, 2), 0, 0));
  // All equal priority: the newest job (the arrival) is the victim, so a
  // stream of ties degenerates to drop-tail — deterministic and fair to
  // work already accepted.
  const auto victim = queue.offer(job(2, 2), 0, 0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->job_id, 2);
}

TEST(AdmissionQueueTest, PolicyNamesRoundTrip) {
  // The names parse back through the config's codec row, which is what
  // hqserve's --shed-policy reads.
  for (ShedPolicy policy : {ShedPolicy::DropTail, ShedPolicy::DeadlineAware,
                            ShedPolicy::Priority}) {
    ServiceConfig config;
    ASSERT_TRUE(codec::parse(
        std::string("shed-policy=") + shed_policy_name(policy), &config,
        nullptr));
    EXPECT_EQ(config.shed_policy, policy);
  }
  ServiceConfig config;
  EXPECT_FALSE(codec::parse("shed-policy=nonsense", &config, nullptr));
}

TEST(AdmissionQueueTest, PopFromEmptyThrows) {
  AdmissionQueue queue({});
  EXPECT_THROW(queue.pop_front(), hq::Error);
}

}  // namespace
}  // namespace hq::serve
