#include "hyperq/app_body.hpp"

#include "common/check.hpp"

namespace hq::fw {

DeviceStack::DeviceStack(sim::Simulator& sim, const gpu::DeviceSpec& raw_spec,
                         const fault::FaultPlan& plan, bool functional,
                         const rt::RetryPolicy& retry, int num_streams,
                         bool check_invariants)
    : injector(plan.enabled ? std::make_unique<fault::FaultInjector>(plan)
                            : nullptr),
      spec(injector != nullptr ? injector->degraded(raw_spec) : raw_spec),
      recorder(std::make_shared<trace::Recorder>()),
      device(sim, spec, recorder.get()),
      runtime(sim, device,
              {.functional = functional,
               .retry = retry,
               .fault_injector = injector.get()}),
      manager(runtime, num_streams),
      htod_lock(sim),
      checker(check_invariants
                  ? std::make_unique<check::InvariantChecker>(spec)
                  : nullptr) {}

void DeviceStack::attach_observers(
    std::initializer_list<gpu::DeviceObserver*> extra) {
  // The fanout is used only from the second observer on.
  gpu::DeviceObserver* observer = checker.get();
  for (gpu::DeviceObserver* o : extra) {
    if (o == nullptr) continue;
    if (observer == nullptr) {
      observer = o;
      continue;
    }
    if (observer != &fanout) {
      fanout.add(observer);
      observer = &fanout;
    }
    fanout.add(o);
  }
  if (observer != nullptr) device.set_observer(observer);
  if (injector == nullptr) return;
  // Faults report through the same chain as device events, so the checker
  // can reconcile every on_fault_injected against the injector's stats.
  injector->set_observer(observer);
  device.set_copy_fault_hook(
      [inj = injector.get()](TimeNs now, gpu::CopyDirection dir, gpu::OpId op,
                             Bytes bytes, DurationNs base) {
        return inj->copy_service_penalty(now, dir, op, bytes, base);
      });
}

Context DeviceStack::context(sim::Simulator& sim, int app_id) {
  Context ctx;
  ctx.sim = &sim;
  ctx.runtime = &runtime;
  ctx.app_id = app_id;
  ctx.functional = runtime.options().functional;
  return ctx;
}

bool DeviceStack::allocate(Kernel& app, Context& ctx, bool* quarantined,
                           std::string* reason) {
  try {
    app.allocateHostMemory(ctx);
    app.allocateDeviceMemory(ctx);
    if (runtime.options().functional) app.initializeHostMemory(ctx);
  } catch (const Error& e) {
    if (injector == nullptr) throw;
    *quarantined = true;
    *reason = std::string("allocation-failed: ") + e.what();
    return false;
  }
  return true;
}

sim::Task DeviceStack::run_stages(Kernel* app, Context* ctx, bool memsync,
                                  bool* quarantined, std::string* reason) {
  ctx->stream = manager.acquire();
  if (memsync) {
    // All of this app's transfers complete before another app takes
    // control of the copy queue: a pseudo-burst transfer.
    const TimeNs requested = ctx->sim->now();
    auto guard = co_await htod_lock.scoped_lock();
    const TimeNs acquired = ctx->sim->now();
    if (acquired > requested) {
      recorder->add(ctx->stream.id, ctx->app_id, trace::SpanKind::LockWait,
                    "htod-lock", requested, acquired);
    }
    co_await app->transferMemory(*ctx, Direction::HostToDevice);
    guard.reset();
  } else {
    co_await app->transferMemory(*ctx, Direction::HostToDevice);
  }
  co_await app->executeKernel(*ctx);
  co_await app->transferMemory(*ctx, Direction::DeviceToHost);
  // A launch that exhausted its retry budget leaves the stream in a sticky
  // fault; later submissions fail fast, so the body still drains.
  if (injector != nullptr && !*quarantined &&
      runtime.stream_fault(ctx->stream) != rt::Status::Ok) {
    *quarantined = true;
    *reason = "launch-aborted";
  }
}

void DeviceStack::finalize_checks(std::size_t device_index) {
  if (checker == nullptr) return;
  checker->finalize(device);
  checker->finalize_runtime(runtime);
  if (injector != nullptr) checker->finalize_faults(injector->stats());
  HQ_CHECK_MSG(checker->ok(), "device " << device_index
                                        << " invariant violations:\n"
                                        << checker->report());
}

}  // namespace hq::fw
