#include "fault/breaker.hpp"

#include "common/check.hpp"

namespace hq::fault {
std::span<const codec::Field<CircuitBreaker::Config>> codec_fields(
    const CircuitBreaker::Config&) {
  using C = CircuitBreaker::Config;
  static constexpr auto kFields = codec::table<C>({
      codec::row<&C::failure_threshold>("failure-threshold", {.min = 1}),
      codec::row<&C::cooldown>("cooldown", {.min = 0, .min_open = true}),
  });
  return kFields;
}

CircuitBreaker::CircuitBreaker() : CircuitBreaker(Config{}) {}

CircuitBreaker::CircuitBreaker(Config config) : config_(config) {
  std::string error;
  HQ_CHECK_MSG(codec::check(config_, &error), "breaker: " << error);
}

bool CircuitBreaker::allow(TimeNs now) {
  switch (state_) {
    case State::Closed:
      return true;
    case State::Open:
      if (now < open_until_) {
        ++rejected_;
        return false;
      }
      // Cooldown elapsed: admit exactly one probe.
      state_ = State::HalfOpen;
      probe_outstanding_ = true;
      ++probes_;
      return true;
    case State::HalfOpen:
      if (probe_outstanding_) {
        ++rejected_;
        return false;
      }
      // The probe resolved by failure (re-open handled there); a resolved
      // success closes the breaker, so a lingering HalfOpen without an
      // outstanding probe admits the next job as a fresh probe.
      probe_outstanding_ = true;
      ++probes_;
      return true;
    case State::Blocklisted:
      ++rejected_;
      return false;
  }
  return true;
}

bool CircuitBreaker::would_allow(TimeNs now) const {
  switch (state_) {
    case State::Closed:
      return true;
    case State::Open:
      return now >= open_until_;
    case State::HalfOpen:
      return !probe_outstanding_;
    case State::Blocklisted:
      return false;
  }
  return true;
}

void CircuitBreaker::record_success(TimeNs now) {
  (void)now;
  if (state_ == State::Blocklisted) return;  // terminal: stragglers ignored
  ++successes_;
  consecutive_failures_ = 0;
  if (state_ == State::HalfOpen) {
    probe_outstanding_ = false;
    state_ = State::Closed;
  }
}

void CircuitBreaker::record_failure(TimeNs now) {
  if (state_ == State::Blocklisted) return;  // terminal: stragglers ignored
  ++failures_;
  ++consecutive_failures_;
  switch (state_) {
    case State::Closed:
      if (consecutive_failures_ >= config_.failure_threshold) trip(now);
      break;
    case State::HalfOpen:
      // The probe (or a straggler admitted before the trip) failed.
      probe_outstanding_ = false;
      trip(now);
      break;
    case State::Open:
      // Stragglers admitted before the trip may still fail while Open;
      // they extend nothing — the cooldown clock keeps its deadline so
      // recovery probing stays deterministic and prompt.
      break;
    case State::Blocklisted:
      break;  // unreachable (early return above); keeps the switch exhaustive
  }
}

void CircuitBreaker::blocklist(TimeNs now) {
  if (state_ == State::Blocklisted) return;
  state_ = State::Blocklisted;
  probe_outstanding_ = false;
  blocklisted_at_ = now;
}

void CircuitBreaker::trip(TimeNs now) {
  state_ = State::Open;
  open_until_ = now + config_.cooldown;
  last_trip_time_ = now;
  ++trips_;
}

const char* breaker_state_name(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::Closed: return "closed";
    case CircuitBreaker::State::Open: return "open";
    case CircuitBreaker::State::HalfOpen: return "half-open";
    case CircuitBreaker::State::Blocklisted: return "blocklisted";
  }
  return "?";
}

}  // namespace hq::fault
