// Deterministic placement policies for the fleet serving layer
// (library hq_fleet).
//
// The ClusterScheduler (src/fleet/fleet.hpp) asks a Placer to pick the
// device for every arriving job. A policy sees only a per-device load
// snapshot — health, outstanding work, copy-engine queue depth — taken at
// the arrival instant, so decisions depend on nothing but simulator state
// and are bit-identical across runs and --jobs counts (the repository-wide
// determinism contract).
//
// Quarantined devices (health breaker rejecting work) are never picked by
// any policy; when no device is healthy the placer returns nullopt and the
// fleet sheds the job as JobState::ShedNoDevice.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace hq::fleet {

enum class PlacementPolicy : std::uint8_t {
  /// Cyclic over healthy devices, independent of load. The baseline.
  RoundRobin,
  /// Fewest outstanding jobs (queued + inflight); ties go to the lowest
  /// device index.
  LeastLoaded,
  /// Least outstanding + copy_penalty * copy-engine queue depth: devices
  /// with deep HtoD/DtoH queues are penalized, steering work away from DMA
  /// contention. Ties go to the lowest device index.
  CopyAware,
  /// Class k prefers device k mod N; when the preferred device is
  /// unhealthy the scan continues cyclically to the next healthy one, so
  /// the fallback is deterministic.
  ClassAffinity,
};

/// Canonical name used in CLI flags and reports ("round-robin",
/// "least-loaded", "copy-aware", "class-affinity").
const char* placement_policy_name(PlacementPolicy policy);

/// Every policy, in enum order — the sweep/fuzz iteration set.
std::vector<PlacementPolicy> all_placement_policies();

/// Load snapshot of one device at a placement decision.
struct DeviceLoad {
  /// False while the device's health breaker rejects new work.
  bool healthy = true;
  /// Queued + inflight jobs on the device.
  std::size_t outstanding = 0;
  /// Transactions waiting in or being served by the copy engines
  /// (HtoD + DtoH).
  std::size_t copy_depth = 0;
};

/// Stateful (round-robin cursor) but purely deterministic device picker.
class Placer {
 public:
  Placer(PlacementPolicy policy, double copy_penalty)
      : policy_(policy), copy_penalty_(copy_penalty) {}

  /// Picks a healthy device for a job of class `klass`, or nullopt when no
  /// device is healthy.
  std::optional<std::size_t> place(std::span<const DeviceLoad> loads,
                                   std::size_t klass);

  PlacementPolicy policy() const { return policy_; }

 private:
  PlacementPolicy policy_;
  double copy_penalty_;
  /// Next device the round-robin scan starts from.
  std::size_t rr_next_ = 0;
};

}  // namespace hq::fleet
