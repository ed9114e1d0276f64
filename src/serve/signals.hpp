// Passive device observer wiring serve control loops to device signals
// (library hq_serve).
//
// HtoD queue wait/service pairs feed the overload controller, and injected
// copy stalls are attributed (via the op's owning app) to the app's class
// breaker. One instance watches one device: each shard of the serving
// engine (src/fleet) attaches its own.
//
// Like every DeviceObserver, the signals observer never mutates device
// state, so attaching it is zero-perturbation: the simulated schedule and
// trace::digest are bit-identical with or without it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "fault/breaker.hpp"
#include "gpusim/observer.hpp"
#include "serve/controller.hpp"
#include "serve/service.hpp"

namespace hq::serve {

class ServeSignals final : public gpu::DeviceObserver {
 public:
  /// `jobs` maps app ids (= job ids) to their class; `breakers` holds one
  /// breaker per class (empty or nullptr disables attribution).
  ServeSignals(OverloadController* controller,
               std::deque<JobRecord>* jobs,
               std::vector<std::unique_ptr<fault::CircuitBreaker>>* breakers)
      : controller_(controller), jobs_(jobs), breakers_(breakers) {}

  void on_copy_enqueued(TimeNs now, gpu::CopyDirection dir, gpu::OpId op,
                        gpu::StreamId /*stream*/, std::int32_t /*app*/,
                        Bytes /*bytes*/) override {
    if (dir == gpu::CopyDirection::HtoD) enqueued_[op] = now;
  }

  void on_copy_served(TimeNs now, gpu::CopyDirection dir, gpu::OpId op,
                      std::int32_t app, TimeNs begin, TimeNs end,
                      Bytes /*bytes*/) override {
    if (dir == gpu::CopyDirection::HtoD) {
      const auto it = enqueued_.find(op);
      if (it != enqueued_.end()) {
        const DurationNs wait = begin - it->second;
        const DurationNs service = end - begin;
        enqueued_.erase(it);
        if (controller_ != nullptr) {
          controller_->observe_htod(now, wait, service);
        }
      }
    }
    const auto stalled = stalled_.find(op);
    if (stalled != stalled_.end()) {
      stalled_.erase(stalled);
      if (app >= 0 && breakers_ != nullptr && !breakers_->empty() &&
          static_cast<std::size_t>(app) < jobs_->size()) {
        const std::size_t klass = (*jobs_)[static_cast<std::size_t>(app)].klass;
        (*breakers_)[klass]->record_failure(now);
      }
    }
  }

  void on_fault_injected(TimeNs /*now*/, gpu::ObservedFault kind,
                         std::uint64_t key, DurationNs /*penalty*/) override {
    if (kind == gpu::ObservedFault::CopyStall) stalled_.insert(key);
  }

 private:
  OverloadController* controller_;
  std::deque<JobRecord>* jobs_;
  std::vector<std::unique_ptr<fault::CircuitBreaker>>* breakers_;
  std::map<gpu::OpId, TimeNs> enqueued_;
  std::set<std::uint64_t> stalled_;
};

}  // namespace hq::serve
