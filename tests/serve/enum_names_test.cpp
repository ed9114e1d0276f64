// The hand-kept enum -> name switches: every enumerator has a name of its
// own. The switches stay switches so -Wswitch flags a new enumerator
// without a case; this walk catches a case that returns a duplicate or the
// "?" fallback.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gpusim/observer.hpp"
#include "serve/job_tally.hpp"
#include "serve/lifecycle.hpp"

namespace hq {
namespace {

/// Names of enumerators 0..last (contiguous from 0) through `name`.
template <typename E, typename NameFn>
void expect_distinct_names(E last, NameFn name) {
  std::set<std::string> seen;
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    const std::string n = name(static_cast<E>(i));
    EXPECT_FALSE(n.empty()) << i;
    EXPECT_NE(n, "?") << i;
    EXPECT_TRUE(seen.insert(n).second) << "duplicate name " << n;
  }
}

TEST(EnumNamesTest, EveryEnumeratorHasItsOwnName) {
  expect_distinct_names(serve::JobEventKind::ShedFailoverExhausted,
                        serve::job_event_kind_name);
  expect_distinct_names(serve::JobState::ShedFailoverExhausted,
                        [](serve::JobState s) { return serve::job_state_name(s); });
  expect_distinct_names(
      static_cast<gpu::ObservedFault>(gpu::kNumObservedFaults - 1),
      gpu::observed_fault_name);
}

TEST(EnumNamesTest, TerminalEventOfAStateHasTheStateName) {
  for (int i = 0; i <= static_cast<int>(serve::JobState::ShedFailoverExhausted);
       ++i) {
    const auto state = static_cast<serve::JobState>(i);
    if (state == serve::JobState::Queued ||
        state == serve::JobState::Inflight) {
      EXPECT_THROW(serve::terminal_event(state), Error);
      continue;
    }
    EXPECT_STREQ(serve::job_event_kind_name(serve::terminal_event(state)),
                 serve::job_state_name(state));
  }
}

}  // namespace
}  // namespace hq
