// Serving-layer accounting invariants (library hq_check).
//
// The serving engine (src/fleet) classifies every arrival into exactly one
// terminal state. Two properties must hold for any configuration, fault
// plan, and seed:
//
//   1. Conservation: arrived == JobTally::terminal(). No job is lost or
//      double-counted, even under faults and shedding.
//
//   2. Shed work is free: a job dropped before it ever dispatched (shed or
//      expired in the queue) never touched the device, so its app id must
//      not appear on any trace span. A fleet failover victim that ran, lost
//      its device and was dropped afterwards is exempt: its cancelled
//      attempts own spans. Every dropped job is one or the other.
//
// The checks live in hq_check (not hq_serve) so the fuzz oracles can verify
// serving runs through the same layer that validates device invariants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/job_tally.hpp"
#include "trace/trace.hpp"

namespace hq::check {

/// Final job accounting of one serving device (filled per fleet device):
/// the tally of the jobs it terminally owns plus the shed evidence the span
/// check needs. A fleet verifies each device against its own accounting
/// plus the fleet-owned one (shed_no_device and shed_failover_exhausted
/// jobs), because fleet-owned ids must be span-free on every recorder.
struct ServeAccounting : serve::JobTally {
  /// Dropped jobs (is_dropped: shed or timed out) that had dispatched
  /// before their device went down and were dropped after failing over.
  /// Their cancelled attempts legitimately own trace spans, so their ids
  /// stay out of undispatched_apps.
  std::uint64_t shed_after_dispatch = 0;
  /// App ids of dropped jobs that never dispatched; these must have no
  /// trace spans.
  std::vector<std::int32_t> undispatched_apps;

  ServeAccounting& operator+=(const ServeAccounting& o) {
    serve::JobTally::operator+=(o);
    shed_after_dispatch += o.shed_after_dispatch;
    undispatched_apps.insert(undispatched_apps.end(),
                             o.undispatched_apps.begin(),
                             o.undispatched_apps.end());
    return *this;
  }
};

/// Verifies the serve accounting invariants. Returns human-readable
/// violation descriptions; empty means every invariant holds. `trace` may
/// be nullptr, which skips the span check.
std::vector<std::string> verify_serve_accounting(const ServeAccounting& acc,
                                                 const trace::Recorder* trace);

}  // namespace hq::check
