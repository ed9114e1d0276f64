// Serving-layer accounting invariants (library hq_check).
//
// The serving engine (src/fleet) classifies every arrival into exactly one
// terminal state. Two properties must hold for any configuration, fault
// plan, and seed:
//
//   1. Conservation: arrived == completed_ok + completed_late +
//      shed_queue_full + shed_breaker + timed_out_queued + quarantined.
//      No job is lost or double-counted, even under faults and shedding.
//
//   2. Shed work is free: a job rejected before dispatch (shed or expired
//      in the queue) never touched the device, so its app id must not
//      appear on any trace span.
//
// The checks live in hq_check (not hq_serve) so the fuzz oracles can verify
// serving runs through the same layer that validates device invariants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace hq::check {

/// Final job accounting of one serving device (filled per fleet device).
struct ServeAccounting {
  std::uint64_t arrived = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_late = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_breaker = 0;
  std::uint64_t timed_out_queued = 0;
  std::uint64_t quarantined = 0;
  /// Fleet-only: arrivals rejected because no healthy device existed. Not
  /// part of this device's `arrived` (no device ever saw them), but their
  /// ids still ride in undispatched_apps for the span-free check.
  std::uint64_t shed_no_device = 0;
  /// Fleet-only: jobs dropped after exhausting their failover budget (or
  /// the supply of healthy survivors) WITHOUT ever dispatching. Like
  /// shed_no_device they are not part of this device's `arrived`, and
  /// their ids ride in undispatched_apps for the span-free check. Jobs
  /// that dispatched before their device went down are accounted only at
  /// the fleet level (their partial runs legitimately own trace spans).
  std::uint64_t shed_failover_exhausted = 0;
  /// App ids of jobs rejected before dispatch (shed or expired while
  /// queued); these must have no trace spans.
  std::vector<std::int32_t> undispatched_apps;
};

/// Verifies the serve accounting invariants. Returns human-readable
/// violation descriptions; empty means every invariant holds. `trace` may
/// be nullptr, which skips the span check.
std::vector<std::string> verify_serve_accounting(const ServeAccounting& acc,
                                                 const trace::Recorder* trace);

}  // namespace hq::check
