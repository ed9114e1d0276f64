// Hysteresis overload controller for the serving layer (library hq_serve).
//
// The paper's memory-sync mode (Section III-B pseudo-burst transfers)
// trades HtoD interleaving for serialized, burst-shaped transfers — a win
// exactly when the copy queue is congested. This controller closes the
// loop: it watches the per-transaction HtoD *stretch* (the effective
// latency inflation of paper Eq. 1: (queue wait + service) / service) as an
// EWMA and switches the service into memory-sync mode when the stretch
// crosses an engage watermark, releasing when it falls back below a lower
// release watermark.
//
// Flap control is twofold: the engage watermark sits strictly above the
// release watermark (hysteresis), and transitions are separated by a
// minimum dwell time. Both are evaluated on the virtual clock against
// deterministic observer events, so the engaged/released trajectory is
// bit-identical across runs and --jobs counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/codec.hpp"
#include "common/units.hpp"

namespace hq::serve {

class OverloadController {
 public:
  struct Config {
    /// Disabled controllers never engage (observe_htod is a no-op).
    bool enabled = false;
    /// Engage pseudo-burst mode when the stretch EWMA rises to or above
    /// this watermark. Must be strictly greater than release_stretch.
    double engage_stretch = 3.0;
    /// Release back to interleaved transfers when the EWMA falls to or
    /// below this watermark. Must be >= 1 (a stretch below 1 cannot occur).
    double release_stretch = 1.5;
    /// EWMA smoothing factor in (0, 1]; 1 = no smoothing.
    double alpha = 0.25;
    /// Minimum observations before the controller may first engage.
    std::uint64_t min_samples = 4;
    /// Minimum virtual time between transitions (debounces flapping).
    DurationNs min_dwell = 2 * kMillisecond;
  };

  /// One engage/release edge, for reports and determinism tests.
  struct Transition {
    TimeNs at = 0;
    bool engaged = false;
    double stretch = 0.0;  ///< EWMA value that triggered the edge
  };

  explicit OverloadController(Config config);

  /// Feeds one served HtoD DMA transaction: `wait` is the time spent in the
  /// copy queue, `service` the actual service time. Updates the EWMA and
  /// applies the hysteresis rule.
  void observe_htod(TimeNs now, DurationNs wait, DurationNs service);

  bool enabled() const { return config_.enabled; }
  /// True while the service should run transfers in pseudo-burst mode.
  bool engaged() const { return engaged_; }
  double stretch() const { return stretch_; }

  std::uint64_t samples() const { return samples_; }
  std::uint64_t engagements() const { return engagements_; }
  std::uint64_t releases() const { return releases_; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  const Config& config() const { return config_; }

 private:
  Config config_;
  bool engaged_ = false;
  double stretch_ = 1.0;
  std::uint64_t samples_ = 0;
  std::uint64_t engagements_ = 0;
  std::uint64_t releases_ = 0;
  TimeNs last_transition_ = 0;
  std::vector<Transition> transitions_;
};

/// The controller config's codec table (common/codec.hpp).
std::span<const codec::Field<OverloadController::Config>> codec_fields(
    const OverloadController::Config&);

}  // namespace hq::serve
