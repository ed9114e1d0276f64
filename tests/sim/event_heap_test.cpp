// Properties of the simulator's event queue: a 4-ary heap of (time, seq)
// keys over a callback slab, with replace-top dispatch (the first event a
// callback schedules takes the root its own event vacated). None of that
// may be observable: dispatch order is exactly the (time, seq) order, and
// pending_events()/idle() never count the vacated root.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace hq::sim {
namespace {

/// Drives a Simulator with randomly branching callbacks and records, for
/// every scheduled event, its (time, schedule-order) key and the order it
/// was dispatched in.
class Differential {
 public:
  explicit Differential(std::uint64_t seed, std::size_t budget)
      : rng_(seed), budget_(budget) {}

  void schedule(TimeNs at) {
    const std::size_t id = keys_.size();
    keys_.push_back({at, id});
    sim_.schedule_at(at, [this, id] { fire(id); });
  }

  Simulator& sim() { return sim_; }
  const std::vector<std::size_t>& dispatched() const { return dispatched_; }

  /// Event ids sorted by (time, seq): the order any correct queue must
  /// dispatch them in.
  std::vector<std::size_t> reference_order() const {
    std::vector<std::size_t> ids(keys_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    std::sort(ids.begin(), ids.end(), [this](std::size_t a, std::size_t b) {
      return std::tie(keys_[a].time, keys_[a].seq) <
             std::tie(keys_[b].time, keys_[b].seq);
    });
    return ids;
  }

  TimeNs time_of(std::size_t id) const { return keys_[id].time; }

 private:
  struct RefKey {
    TimeNs time;
    std::size_t seq;
  };

  void fire(std::size_t id) {
    EXPECT_EQ(sim_.now(), keys_[id].time);
    dispatched_.push_back(id);
    if (keys_.size() >= budget_) return;
    // Branching factor 0, 1 or many; a third of the successors land on
    // the current instant, behind everything already pending there.
    const std::uint64_t roll = rng_.next_below(8);
    const std::uint64_t children =
        roll < 2 ? 0 : roll < 6 ? 1 : 2 + rng_.next_below(4);
    for (std::uint64_t c = 0; c < children; ++c) {
      const TimeNs delay = rng_.next_below(3) == 0 ? 0 : rng_.next_below(40);
      schedule(sim_.now() + delay);
    }
  }

  Simulator sim_;
  Rng rng_;
  std::size_t budget_;
  std::vector<RefKey> keys_;
  std::vector<std::size_t> dispatched_;
};

TEST(EventHeapTest, RandomizedDispatchMatchesReferenceSort) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 42ull, 1234ull}) {
    Differential d(seed, 20000);
    Rng seeds(seed ^ 0x5bd1e995ULL);
    for (int i = 0; i < 64; ++i) d.schedule(seeds.next_below(100));
    // run_until boundaries between bursts: each stops with the clock at
    // the boundary and nothing at or before it left pending.
    TimeNs boundary = 0;
    while (!d.sim().idle()) {
      boundary += 1 + seeds.next_below(60);
      const std::size_t before = d.dispatched().size();
      d.sim().run_until(boundary);
      EXPECT_EQ(d.sim().now(), boundary);
      for (std::size_t k = before; k < d.dispatched().size(); ++k) {
        EXPECT_LE(d.time_of(d.dispatched()[k]), boundary);
      }
      if (seeds.next_below(4) == 0) d.schedule(boundary);  // at the boundary
    }
    ASSERT_EQ(d.dispatched().size(), d.reference_order().size()) << seed;
    EXPECT_EQ(d.dispatched(), d.reference_order()) << "seed " << seed;
    EXPECT_EQ(d.sim().events_processed(), d.dispatched().size());
  }
}

TEST(EventHeapTest, RunDrainsReferenceOrderWithoutBoundaries) {
  Differential d(7, 50000);
  for (int i = 0; i < 512; ++i) d.schedule(static_cast<TimeNs>(i % 17));
  d.sim().run();
  EXPECT_EQ(d.dispatched(), d.reference_order());
  EXPECT_TRUE(d.sim().idle());
  EXPECT_EQ(d.sim().pending_events(), 0u);
}

TEST(EventHeapTest, PendingAndIdleFromInsideCallbacks) {
  Simulator sim;
  std::vector<std::size_t> pending;
  std::vector<bool> idle;
  const auto probe = [&] {
    pending.push_back(sim.pending_events());
    idle.push_back(sim.idle());
  };
  sim.schedule_at(1, [&] {
    probe();  // t=2 and t=3 still pending; the running event is not
    sim.schedule_at(5, [&] { probe(); });
    probe();
    sim.schedule_at(6, [] {});
    probe();
  });
  sim.schedule_at(2, [] {});
  sim.schedule_at(3, [] {});
  sim.run_until(4);
  sim.schedule_at(4, [&] { probe(); });  // t=5 and t=6 still pending
  sim.run();
  EXPECT_EQ(pending, (std::vector<std::size_t>{2, 3, 4, 2, 1}));
  EXPECT_EQ(idle, (std::vector<bool>{false, false, false, false, false}));

  // The last pending event: idle() inside it, before and after it
  // schedules a successor.
  Simulator last;
  std::vector<std::size_t> last_pending;
  std::vector<bool> last_idle;
  last.schedule(1, [&] {
    last_pending.push_back(last.pending_events());
    last_idle.push_back(last.idle());
    last.schedule(1, [] {});
    last_pending.push_back(last.pending_events());
    last_idle.push_back(last.idle());
  });
  last.run();
  EXPECT_EQ(last_pending, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(last_idle, (std::vector<bool>{true, false}));
  EXPECT_TRUE(last.idle());
  EXPECT_EQ(last.events_processed(), 2u);
}

TEST(EventHeapTest, ScheduleThenThrowLeavesAValidHeap) {
  // Throwing before scheduling (the vacated root is closed with the tail)
  // and after scheduling (the root already holds the first new event) must
  // both leave a heap that drains in (time, seq) order.
  for (const int scheduled_before_throw : {0, 1, 3}) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 12; ++i) {
      sim.schedule(static_cast<TimeNs>(10 + (i * 5) % 7),
                   [&order, i] { order.push_back(i); });
    }
    sim.schedule(10, [&] {
      for (int k = 0; k < scheduled_before_throw; ++k) {
        sim.schedule(static_cast<TimeNs>(k),
                     [&order, k] { order.push_back(100 + k); });
      }
      throw std::runtime_error("boom");
    });
    // Events at t=10 scheduled before the thrower run first.
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_EQ(sim.now(), 10u);
    EXPECT_EQ(sim.pending_events(),
              12u - 2u + static_cast<std::size_t>(scheduled_before_throw));
    sim.run();
    EXPECT_TRUE(sim.idle());

    // Reference: the 12 base events and the thrower's successors, in
    // (time, seq) order.
    std::vector<std::tuple<TimeNs, int, int>> ref;  // time, seq, label
    for (int i = 0; i < 12; ++i) ref.emplace_back(10 + (i * 5) % 7, i, i);
    for (int k = 0; k < scheduled_before_throw; ++k) {
      ref.emplace_back(10 + k, 13 + k, 100 + k);
    }
    std::sort(ref.begin(), ref.end());
    std::vector<int> expected;
    for (const auto& [t, seq, label] : ref) expected.push_back(label);
    EXPECT_EQ(order, expected)
        << "scheduled before throw: " << scheduled_before_throw;
  }
}

TEST(EventHeapTest, RunFromInsideACallbackIsRejected) {
  Simulator sim;
  sim.schedule(1, [&] { sim.run(); });
  sim.schedule(2, [] {});
  EXPECT_THROW(sim.run(), hq::Error);
  // The rejected nested call left the queue intact.
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

}  // namespace
}  // namespace hq::sim
