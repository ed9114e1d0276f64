#include "serve/controller.hpp"

#include "common/check.hpp"

namespace hq::serve {
std::span<const codec::Field<OverloadController::Config>> codec_fields(
    const OverloadController::Config&) {
  using C = OverloadController::Config;
  static constexpr auto kFields = codec::table<C>({
      codec::row<&C::enabled>("enabled"),
      codec::row<&C::engage_stretch>("engage-stretch"),
      codec::row<&C::release_stretch>("release-stretch"),
      codec::row<&C::alpha>("alpha"),
      codec::row<&C::min_samples>("min-samples"),
      codec::row<&C::min_dwell>("min-dwell"),
  });
  return kFields;
}

OverloadController::OverloadController(Config config) : config_(config) {
  HQ_CHECK_MSG(config_.release_stretch >= 1.0,
               "overload controller: release_stretch must be >= 1, got "
                   << config_.release_stretch);
  HQ_CHECK_MSG(config_.engage_stretch > config_.release_stretch,
               "overload controller: engage_stretch ("
                   << config_.engage_stretch
                   << ") must be strictly above release_stretch ("
                   << config_.release_stretch << ")");
  HQ_CHECK_MSG(config_.alpha > 0.0 && config_.alpha <= 1.0,
               "overload controller: alpha must be in (0, 1], got "
                   << config_.alpha);
}

void OverloadController::observe_htod(TimeNs now, DurationNs wait,
                                      DurationNs service) {
  if (!config_.enabled) return;
  if (service == 0) return;  // degenerate transfer; stretch is undefined

  const double sample = static_cast<double>(wait + service) /
                        static_cast<double>(service);
  ++samples_;
  stretch_ = samples_ == 1
                 ? sample
                 : config_.alpha * sample + (1.0 - config_.alpha) * stretch_;

  const bool dwell_ok =
      transitions_.empty() || now >= last_transition_ + config_.min_dwell;
  if (!engaged_) {
    if (samples_ >= config_.min_samples &&
        stretch_ >= config_.engage_stretch && dwell_ok) {
      engaged_ = true;
      ++engagements_;
      last_transition_ = now;
      transitions_.push_back({now, true, stretch_});
    }
  } else if (stretch_ <= config_.release_stretch && dwell_ok) {
    engaged_ = false;
    ++releases_;
    last_transition_ = now;
    transitions_.push_back({now, false, stretch_});
  }
}

}  // namespace hq::serve
