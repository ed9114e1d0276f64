#include "fault/breaker.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/check.hpp"

namespace hq::fault {
namespace {

TEST(CircuitBreakerTest, StartsClosedAndAdmits) {
  CircuitBreaker breaker;
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(breaker.allow(0));
  EXPECT_TRUE(breaker.allow(kMillisecond));
  EXPECT_EQ(breaker.rejected(), 0u);
}

TEST(CircuitBreakerTest, TripsAtConsecutiveFailureThreshold) {
  CircuitBreaker breaker({/*failure_threshold=*/3, /*cooldown=*/kMillisecond});
  breaker.record_failure(10);
  breaker.record_failure(20);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  breaker.record_failure(30);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.last_trip_time(), 30);
  EXPECT_FALSE(breaker.allow(31));
  EXPECT_EQ(breaker.rejected(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveCount) {
  CircuitBreaker breaker({/*failure_threshold=*/2, /*cooldown=*/kMillisecond});
  breaker.record_failure(1);
  breaker.record_success(2);
  breaker.record_failure(3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  breaker.record_failure(4);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  CircuitBreaker breaker({/*failure_threshold=*/1, /*cooldown=*/kMillisecond});
  breaker.record_failure(0);
  EXPECT_FALSE(breaker.allow(kMillisecond - 1));  // still cooling down
  EXPECT_TRUE(breaker.allow(kMillisecond));       // the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_EQ(breaker.probes(), 1u);
  EXPECT_FALSE(breaker.allow(kMillisecond + 1));  // probe outstanding
}

TEST(CircuitBreakerTest, ProbeSuccessCloses) {
  CircuitBreaker breaker({/*failure_threshold=*/1, /*cooldown=*/kMillisecond});
  breaker.record_failure(0);
  EXPECT_TRUE(breaker.allow(kMillisecond));
  breaker.record_success(kMillisecond + 500);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(breaker.allow(kMillisecond + 501));
}

TEST(CircuitBreakerTest, ProbeFailureReopensForAnotherCooldown) {
  CircuitBreaker breaker({/*failure_threshold=*/1, /*cooldown=*/kMillisecond});
  breaker.record_failure(0);
  EXPECT_TRUE(breaker.allow(kMillisecond));
  breaker.record_failure(kMillisecond + 100);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.allow(2 * kMillisecond + 99));
  EXPECT_TRUE(breaker.allow(2 * kMillisecond + 100));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
}

TEST(CircuitBreakerTest, OpenStragglersDoNotExtendCooldown) {
  CircuitBreaker breaker({/*failure_threshold=*/1, /*cooldown=*/kMillisecond});
  breaker.record_failure(0);
  // Failures from jobs already inflight when the breaker tripped arrive
  // while it is Open; they must not push the probe time out.
  breaker.record_failure(500);
  breaker.record_failure(900);
  EXPECT_TRUE(breaker.allow(kMillisecond));
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, CountersAreMonotonic) {
  CircuitBreaker breaker({/*failure_threshold=*/1, /*cooldown=*/kMillisecond});
  breaker.record_failure(0);
  EXPECT_FALSE(breaker.allow(1));
  EXPECT_FALSE(breaker.allow(2));
  EXPECT_TRUE(breaker.allow(kMillisecond));
  breaker.record_success(kMillisecond + 1);
  EXPECT_EQ(breaker.failures(), 1u);
  EXPECT_EQ(breaker.successes(), 1u);
  EXPECT_EQ(breaker.rejected(), 2u);
  EXPECT_EQ(breaker.probes(), 1u);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, BlocklistIsTerminalAndKeepsItsFirstTime) {
  CircuitBreaker breaker({/*failure_threshold=*/1, /*cooldown=*/kMillisecond});
  breaker.record_failure(0);  // Open, cooling down until 1 ms
  breaker.blocklist(100);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Blocklisted);
  EXPECT_TRUE(breaker.blocklisted());
  EXPECT_EQ(breaker.blocklisted_at(), 100);
  breaker.blocklist(200);  // idempotent: the first time stays
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Blocklisted);
  EXPECT_EQ(breaker.blocklisted_at(), 100);

  // Stragglers' signals are ignored and no cooldown ever admits a probe.
  breaker.record_success(300);
  breaker.record_failure(400);
  breaker.record_success(500);
  for (const TimeNs now : {kMillisecond, 10 * kMillisecond, kSecond}) {
    EXPECT_FALSE(breaker.allow(now));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Blocklisted);
  }
  EXPECT_EQ(breaker.blocklisted_at(), 100);
  EXPECT_EQ(breaker.successes(), 0u);
  EXPECT_EQ(breaker.failures(), 1u);
  EXPECT_EQ(breaker.probes(), 0u);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.rejected(), 3u);
  EXPECT_EQ(std::string(breaker_state_name(breaker.state())), "blocklisted");
}

TEST(CircuitBreakerTest, BlocklistFromClosedAndHalfOpen) {
  CircuitBreaker closed({/*failure_threshold=*/2, /*cooldown=*/kMillisecond});
  closed.blocklist(5);
  closed.record_failure(6);
  closed.record_failure(7);  // would have tripped a Closed breaker
  EXPECT_EQ(closed.state(), CircuitBreaker::State::Blocklisted);
  EXPECT_EQ(closed.trips(), 0u);
  EXPECT_FALSE(closed.allow(8));

  CircuitBreaker half_open({/*failure_threshold=*/1, kMillisecond});
  half_open.record_failure(0);
  ASSERT_TRUE(half_open.allow(kMillisecond));  // the probe is out
  ASSERT_EQ(half_open.state(), CircuitBreaker::State::HalfOpen);
  half_open.blocklist(kMillisecond + 1);
  half_open.record_success(kMillisecond + 2);  // the probe's late success
  EXPECT_EQ(half_open.state(), CircuitBreaker::State::Blocklisted);
  EXPECT_EQ(half_open.blocklisted_at(), kMillisecond + 1);
  EXPECT_FALSE(half_open.allow(2 * kMillisecond));
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_EQ(std::string(breaker_state_name(CircuitBreaker::State::Closed)),
            "closed");
  EXPECT_EQ(std::string(breaker_state_name(CircuitBreaker::State::Open)),
            "open");
  EXPECT_EQ(std::string(breaker_state_name(CircuitBreaker::State::HalfOpen)),
            "half-open");
}

TEST(CircuitBreakerTest, RejectsBadConfig) {
  EXPECT_THROW(CircuitBreaker({/*failure_threshold=*/0, kMillisecond}),
               hq::Error);
  EXPECT_THROW(CircuitBreaker({/*failure_threshold=*/1, /*cooldown=*/0}),
               hq::Error);
}

}  // namespace
}  // namespace hq::fault
