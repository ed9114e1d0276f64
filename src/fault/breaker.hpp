// Deterministic circuit breaker over the fault-injection layer
// (library hq_fault).
//
// The serving layer (src/serve) keeps one breaker per application class.
// Failures feeding it are the recovery events PR 4 introduced: transient
// kernel-launch rejections, launch aborts (retry budget exhausted, stream in
// fault state), allocation failures, and copy-engine stalls attributed to
// the class. The state machine is the classic three-state breaker:
//
//   Closed   — traffic flows; `failure_threshold` consecutive failures trip
//              the breaker.
//   Open     — all new work for the class is rejected (shed at admission,
//              consuming no device time) until `cooldown` of virtual time
//              has passed.
//   HalfOpen — exactly one probe job is admitted; its success closes the
//              breaker, any failure re-opens it for another cooldown.
//
// PR 10 adds a fourth, terminal state for the integrity pipeline:
//
//   Blocklisted — the subject is permanently removed from service (a device
//                 whose SDC score crossed the blocklist threshold). Unlike
//                 Open, there is no cooldown and no probe: a blocklisted
//                 breaker never admits again, and success/failure signals
//                 from in-flight stragglers are ignored.
//
// Everything is driven by the simulator's virtual clock and the caller's
// event order, so breaker trajectories are bit-identical across runs and
// job counts (the repository-wide determinism contract).
#pragma once

#include <cstdint>
#include <span>

#include "common/codec.hpp"
#include "common/units.hpp"

namespace hq::fault {

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { Closed, Open, HalfOpen, Blocklisted };

  struct Config {
    /// Consecutive failures that trip a Closed breaker.
    int failure_threshold = 3;
    /// Virtual time an Open breaker rejects work before probing.
    DurationNs cooldown = 20 * kMillisecond;
  };

  CircuitBreaker();
  explicit CircuitBreaker(Config config);

  /// Admission gate. In Closed: always true. In Open: false until the
  /// cooldown elapses, at which point the breaker moves to HalfOpen and
  /// admits exactly one probe. In HalfOpen: false while the probe is
  /// outstanding.
  bool allow(TimeNs now);

  /// Non-mutating preview of allow(): would a job offered at `now` be
  /// admitted? Counts nothing and performs no state transition, so callers
  /// (the fleet placement policies) can probe many breakers per decision
  /// and call allow() only on the one they pick.
  bool would_allow(TimeNs now) const;

  /// One unit of work for this class finished successfully. Resets the
  /// consecutive-failure count; resolves a HalfOpen probe by closing.
  void record_success(TimeNs now);

  /// One failure signal (transient launch rejection, launch abort,
  /// allocation failure, or an attributed copy-engine stall). Trips a
  /// Closed breaker at the threshold; re-opens a HalfOpen breaker.
  void record_failure(TimeNs now);

  /// Permanently removes the subject from service (integrity blocklist).
  /// Terminal: no cooldown, no probe, and later success/failure signals are
  /// ignored. Idempotent; records the first blocklist time.
  void blocklist(TimeNs now);

  State state() const { return state_; }
  bool open() const { return state_ == State::Open; }
  bool blocklisted() const { return state_ == State::Blocklisted; }
  int consecutive_failures() const { return consecutive_failures_; }

  // --- counters (monotonic, for reports) -----------------------------------
  std::uint64_t trips() const { return trips_; }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t successes() const { return successes_; }
  /// Time of the most recent Closed/HalfOpen -> Open transition.
  TimeNs last_trip_time() const { return last_trip_time_; }
  /// End of the current Open cooldown (meaningful while open()); lets the
  /// fleet drain loop schedule its retry pump at the exact probe instant.
  TimeNs open_until() const { return open_until_; }
  /// Time of the blocklist() transition (meaningful while blocklisted()).
  TimeNs blocklisted_at() const { return blocklisted_at_; }

  const Config& config() const { return config_; }

 private:
  void trip(TimeNs now);

  Config config_;
  State state_ = State::Closed;
  int consecutive_failures_ = 0;
  bool probe_outstanding_ = false;
  TimeNs open_until_ = 0;
  TimeNs last_trip_time_ = 0;
  TimeNs blocklisted_at_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t successes_ = 0;
};

const char* breaker_state_name(CircuitBreaker::State state);

/// The breaker config's codec table (common/codec.hpp).
std::span<const codec::Field<CircuitBreaker::Config>> codec_fields(
    const CircuitBreaker::Config&);

}  // namespace hq::fault
