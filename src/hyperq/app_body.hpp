// One app body and one device stack, shared by the batch harness
// (fw::Harness) and the serving engine (fleet::FleetService). DESIGN.md §5
// "One app body and one device stack" lists what stays with each caller.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>

#include "check/invariants.hpp"
#include "fault/fault.hpp"
#include "hyperq/kernel.hpp"
#include "hyperq/stream_manager.hpp"
#include "sim/sync.hpp"

namespace hq::fw {

/// One simulated device and everything an app body runs on, built in a
/// fixed order. Non-movable: the device and runtime refer into it.
struct DeviceStack {
  DeviceStack(sim::Simulator& sim, const gpu::DeviceSpec& raw_spec,
              const fault::FaultPlan& plan, bool functional,
              const rt::RetryPolicy& retry, int num_streams,
              bool check_invariants);

  /// Null unless `plan` is enabled. Built first: SMX offlining degrades the
  /// spec the rest sees, and the runtime consults it for launch and
  /// allocation faults.
  std::unique_ptr<fault::FaultInjector> injector;
  gpu::DeviceSpec spec;  ///< after fault degradation (offline SMXs)
  std::shared_ptr<trace::Recorder> recorder;
  gpu::Device device;
  rt::Runtime runtime;
  StreamManager manager;
  sim::Mutex htod_lock;  ///< Section III-B memory-synchronization mutex
  std::unique_ptr<check::InvariantChecker> checker;  ///< null when off
  gpu::ObserverFanout fanout;

  /// Attaches the checker and `extra` (nulls skipped) to the device and the
  /// injector, and routes injected copy faults into the device. A lone
  /// observer is attached directly: no fanout hop per device event.
  void attach_observers(std::initializer_list<gpu::DeviceObserver*> extra);
  /// A context that runs app `app_id` on this device.
  Context context(sim::Simulator& sim, int app_id);
  /// Allocates the app's host and device memory and, in functional runs
  /// only, initialises its host memory: timing-only kernels never read it.
  /// A fault-injected allocation failure quarantines the app and returns
  /// false; without an injector the error propagates.
  bool allocate(Kernel& app, Context& ctx, bool* quarantined,
                std::string* reason);
  /// The paper's child-thread body: take a stream (Section III-C), run HtoD
  /// (under htod_lock, its wait recorded as a LockWait span, when `memsync`;
  /// Section III-B), the kernels and DtoH, then quarantine the app on a
  /// sticky stream fault unless it already is. Awaiting it schedules no
  /// event: the awaiter resumes it by symmetric transfer (sim/task.hpp).
  sim::Task run_stages(Kernel* app, Context* ctx, bool memsync,
                       bool* quarantined, std::string* reason);
  /// End-of-run check of the device, the runtime and the injector's fault
  /// tally; throws hq::Error naming `device_index` on a violation.
  void finalize_checks(std::size_t device_index);
};

}  // namespace hq::fw
