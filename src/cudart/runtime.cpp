#include "cudart/runtime.hpp"

#include <algorithm>
#include <cstring>

#include "fault/fault.hpp"

namespace hq::rt {

const char* status_name(Status status) {
  switch (status) {
    case Status::Ok: return "Ok";
    case Status::OutOfMemory: return "OutOfMemory";
    case Status::InvalidValue: return "InvalidValue";
    case Status::InvalidHandle: return "InvalidHandle";
    case Status::InvalidConfiguration: return "InvalidConfiguration";
    case Status::NotReady: return "NotReady";
    case Status::LaunchFailure: return "LaunchFailure";
  }
  return "?";
}

std::span<const codec::Field<RetryPolicy>> codec_fields(const RetryPolicy&) {
  static constexpr auto kFields = codec::table<RetryPolicy>({
      codec::row<&RetryPolicy::max_attempts>("max-attempts", {.min = 1}),
      codec::row<&RetryPolicy::base_backoff>("base-backoff"),
      codec::row<&RetryPolicy::multiplier>("multiplier", {.min = 1}),
      codec::row<&RetryPolicy::max_backoff>("max-backoff"),
  });
  return kFields;
}

Runtime::Runtime(sim::Simulator& sim, gpu::Device& device,
                 RuntimeOptions options)
    : sim_(sim), device_(device), options_(options) {
  std::string error;
  HQ_CHECK_MSG(codec::check(options_.retry, &error), "retry policy: " << error);
}

// ------------------------------------------------------------- submissions

void Runtime::AsyncSubmit::run_attempt(std::coroutine_handle<> h, int attempt,
                                       DurationNs delay) {
  sim_.schedule(delay, [this, h, attempt] {
    const SubmitOutcome out = attempt_(attempt);
    if (out.status == Status::Ok) {
      result_ = Status::Ok;
      h.resume();
      return;
    }
    if (out.retryable && attempt < retry_.max_attempts) {
      // Stay suspended across the backoff so the stream submission order —
      // and with it the functional output — is unchanged by the retry.
      run_attempt(h, attempt + 1, backoff_after(attempt));
      return;
    }
    result_ = out.status;
    if (give_up_ != nullptr) give_up_(out.status);
    h.resume();
  });
}

DurationNs Runtime::AsyncSubmit::backoff_after(int attempt) const {
  double backoff = static_cast<double>(retry_.base_backoff);
  for (int i = 1; i < attempt; ++i) backoff *= retry_.multiplier;
  return static_cast<DurationNs>(
      std::min(backoff, static_cast<double>(retry_.max_backoff)));
}

// ----------------------------------------------------------------- memory

Result<DevicePtr> Runtime::malloc_device(Bytes bytes) {
  if (bytes == 0) return Status::InvalidValue;
  if (device_bytes_in_use_ + bytes > device_.spec().global_memory) {
    return Status::OutOfMemory;
  }
  const std::uint64_t id = next_device_id_++;
  Allocation alloc;
  alloc.size = bytes;  // backing materializes on first access (see Allocation)
  device_allocs_.emplace(id, std::move(alloc));
  device_bytes_in_use_ += bytes;
  ++mem_stats_.device_allocs;
  return DevicePtr{id};
}

Status Runtime::free_device(DevicePtr ptr) {
  auto it = device_allocs_.find(ptr.id);
  if (it == device_allocs_.end()) {
    ++mem_stats_.failed_frees;
    return Status::InvalidHandle;
  }
  device_bytes_in_use_ -= it->second.size;
  device_allocs_.erase(it);
  ++mem_stats_.device_frees;
  return Status::Ok;
}

Result<HostPtr> Runtime::malloc_host(Bytes bytes) {
  if (bytes == 0) return Status::InvalidValue;
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->host_alloc_fails(sim_.now(),
                                                next_host_alloc_key_++)) {
    return Status::OutOfMemory;
  }
  const std::uint64_t id = next_host_id_++;
  Allocation alloc;
  alloc.size = bytes;  // backing materializes on first access (see Allocation)
  host_allocs_.emplace(id, std::move(alloc));
  ++mem_stats_.host_allocs;
  return HostPtr{id};
}

Status Runtime::free_host(HostPtr ptr) {
  auto it = host_allocs_.find(ptr.id);
  if (it == host_allocs_.end()) {
    ++mem_stats_.failed_frees;
    return Status::InvalidHandle;
  }
  host_allocs_.erase(it);
  ++mem_stats_.host_frees;
  return Status::Ok;
}

Runtime::Allocation& Runtime::device_alloc(DevicePtr ptr) {
  auto it = device_allocs_.find(ptr.id);
  HQ_CHECK_MSG(it != device_allocs_.end(),
               "invalid device pointer id=" << ptr.id);
  return it->second;
}

Runtime::Allocation& Runtime::host_alloc(HostPtr ptr) {
  auto it = host_allocs_.find(ptr.id);
  HQ_CHECK_MSG(it != host_allocs_.end(), "invalid host pointer id=" << ptr.id);
  return it->second;
}

std::span<std::byte> Runtime::host_bytes(HostPtr ptr) {
  Allocation& a = host_alloc(ptr);
  if (!a.data) a.data = std::make_unique<std::byte[]>(a.size);  // zero-filled
  return {a.data.get(), a.size};
}

std::span<std::byte> Runtime::device_bytes(DevicePtr ptr) {
  Allocation& a = device_alloc(ptr);
  if (!a.data) a.data = std::make_unique<std::byte[]>(a.size);  // zero-filled
  return {a.data.get(), a.size};
}

// ----------------------------------------------------------------- streams

Stream Runtime::stream_create() { return stream_create_with_priority(0); }

Stream Runtime::stream_create_with_priority(int priority) {
  const std::int32_t id = next_stream_id_++;
  streams_.emplace(id, StreamRec{});
  device_.register_stream(id, priority);
  return Stream{id};
}

Status Runtime::stream_destroy(Stream stream) {
  auto it = streams_.find(stream.id);
  if (it == streams_.end()) return Status::InvalidHandle;
  if (it->second.pending > 0) return Status::NotReady;
  streams_.erase(it);
  return Status::Ok;
}

Runtime::StreamRec& Runtime::stream_rec(Stream stream) {
  auto it = streams_.find(stream.id);
  HQ_CHECK_MSG(it != streams_.end(), "invalid stream id=" << stream.id);
  return it->second;
}

const Runtime::StreamRec& Runtime::stream_rec(Stream stream) const {
  auto it = streams_.find(stream.id);
  HQ_CHECK_MSG(it != streams_.end(), "invalid stream id=" << stream.id);
  return it->second;
}

bool Runtime::stream_query(Stream stream) const {
  return stream_rec(stream).pending == 0;
}

void Runtime::op_submitted(Stream stream) {
  ++stream_rec(stream).pending;
  ++total_pending_;
}

void Runtime::op_completed(Stream stream) {
  StreamRec& rec = stream_rec(stream);
  HQ_CHECK(rec.pending > 0);
  HQ_CHECK(total_pending_ > 0);
  --rec.pending;
  --total_pending_;
  if (rec.pending == 0) {
    auto waiters = std::move(rec.idle_waiters);
    rec.idle_waiters.clear();
    for (auto h : waiters) sim_.schedule(0, [h] { h.resume(); });
  }
  if (total_pending_ == 0) {
    auto waiters = std::move(device_idle_waiters_);
    device_idle_waiters_.clear();
    for (auto h : waiters) sim_.schedule(0, [h] { h.resume(); });
  }
}

// ----------------------------------------------------------------- ops

Runtime::AsyncSubmit Runtime::memcpy_impl(Stream stream, gpu::CopyDirection dir,
                                          HostPtr host, DevicePtr dev,
                                          Bytes bytes, Bytes offset,
                                          gpu::OpTag tag) {
  // Bounds are validated against the tracked sizes (which also validates
  // both handles); the backing stores themselves are only materialized if a
  // functional payload actually copies bytes, so timing-only runs never
  // allocate or touch buffer memory.
  HQ_CHECK_MSG(offset + bytes <= host_alloc(host).size &&
                   offset + bytes <= device_alloc(dev).size,
               "memcpy of " << bytes << " bytes at offset " << offset
                            << " overflows an allocation");
  stream_rec(stream);  // validate the handle eagerly

  if (bytes == 0) {
    // CUDA semantics: a zero-byte memcpy is a valid no-op. It still costs
    // the driver submission overhead and completes in stream order (as a
    // marker), but never occupies a copy engine.
    return AsyncSubmit{sim_, options_.memcpy_submit_overhead, options_.retry,
                       [this, stream, tag = std::move(tag)](int) mutable
                       -> SubmitOutcome {
                         if (const Status f = stream_rec(stream).fault;
                             f != Status::Ok) {
                           return {f, false};
                         }
                         op_submitted(stream);
                         device_.submit_marker(
                             stream.id, std::move(tag),
                             [this, stream] { op_completed(stream); });
                         return {};
                       }};
  }
  std::function<void()> payload;
  if (options_.functional) {
    // Views are resolved at copy-service time, not submission time: the
    // allocations are stream-ordered alive until the copy completes, and
    // lazy resolution keeps untouched buffers unmaterialized.
    payload = [this, dir, host, dev, bytes, offset] {
      const auto host_view = host_bytes(host).subspan(offset, bytes);
      const auto device_view = device_bytes(dev).subspan(offset, bytes);
      if (dir == gpu::CopyDirection::HtoD) {
        std::memcpy(device_view.data(), host_view.data(), bytes);
      } else {
        std::memcpy(host_view.data(), device_view.data(), bytes);
      }
    };
  }
  // The driver submission overhead modelled by AsyncSubmit is what
  // interleaves concurrent host threads' entries in the copy queue.
  return AsyncSubmit{
      sim_, options_.memcpy_submit_overhead, options_.retry,
      [this, stream, dir, bytes, payload = std::move(payload),
       tag = std::move(tag)](int) mutable -> SubmitOutcome {
        if (const Status f = stream_rec(stream).fault; f != Status::Ok) {
          // Sticky stream fault: fail fast without touching the device so
          // the quarantined app's stream still drains to idle.
          return {f, false};
        }
        op_submitted(stream);
        device_.submit_copy(stream.id,
                            gpu::CopyRequest{dir, bytes, std::move(payload)},
                            std::move(tag),
                            [this, stream] { op_completed(stream); });
        return {};
      }};
}

Runtime::AsyncSubmit Runtime::memcpy_htod_async(Stream stream, DevicePtr dst,
                                                HostPtr src, Bytes bytes,
                                                gpu::OpTag tag, Bytes offset) {
  return memcpy_impl(stream, gpu::CopyDirection::HtoD, src, dst, bytes, offset,
                     std::move(tag));
}

Runtime::AsyncSubmit Runtime::memcpy_dtoh_async(Stream stream, HostPtr dst,
                                                DevicePtr src, Bytes bytes,
                                                gpu::OpTag tag, Bytes offset) {
  return memcpy_impl(stream, gpu::CopyDirection::DtoH, dst, src, bytes, offset,
                     std::move(tag));
}

Status Runtime::validate_launch(const LaunchConfig& config) const {
  const gpu::DeviceSpec& spec = device_.spec();
  const std::uint64_t tpb = config.block.count();
  if (config.grid.count() == 0 || tpb == 0) return Status::InvalidConfiguration;
  if (tpb > static_cast<std::uint64_t>(spec.max_threads_per_block)) {
    return Status::InvalidConfiguration;
  }
  if (config.regs_per_thread * tpb > spec.registers_per_smx) {
    return Status::InvalidConfiguration;
  }
  if (config.smem_per_block > spec.shared_mem_per_smx) {
    return Status::InvalidConfiguration;
  }
  return Status::Ok;
}

Runtime::AsyncSubmit Runtime::launch_kernel(Stream stream, LaunchConfig config,
                                            gpu::OpTag tag) {
  const Status status = validate_launch(config);
  HQ_CHECK_MSG(status == Status::Ok, "invalid launch of '"
                                         << config.name
                                         << "': " << status_name(status));
  stream_rec(stream);  // validate the handle eagerly

  if (tag.label.empty()) tag.label = config.name;
  const std::int32_t app_id = tag.app_id;
  gpu::KernelLaunch launch{
      std::move(config.name),       config.grid,
      config.block,                 config.regs_per_thread,
      config.smem_per_block,        config.block_duration,
      config.contention_sensitivity,
      options_.functional ? std::move(config.body) : nullptr};

  // Transient failures are pre-drawn once per launch (a deterministic
  // function of the fault seed and the launch's issue-order key), capped
  // below the retry budget unless the app is poisoned — so retried launches
  // always reach the device and functional digests match fault-free runs.
  const std::uint64_t op_key = next_launch_key_++;
  int planned_failures = 0;
  if (options_.fault_injector != nullptr) {
    planned_failures = options_.fault_injector->launch_failures_for(
        app_id, op_key, options_.retry.max_attempts - 1);
  }
  return AsyncSubmit{
      sim_, options_.kernel_submit_overhead, options_.retry,
      [this, stream, launch = std::move(launch), tag = std::move(tag),
       planned_failures, op_key, app_id](int attempt) mutable -> SubmitOutcome {
        if (const Status f = stream_rec(stream).fault; f != Status::Ok) {
          return {f, false};
        }
        if (attempt <= planned_failures) {
          if (options_.fault_injector != nullptr) {
            options_.fault_injector->note_launch_failure(sim_.now(), op_key,
                                                         app_id);
          }
          return {Status::LaunchFailure, true};
        }
        op_submitted(stream);
        device_.submit_kernel(stream.id, std::move(launch), std::move(tag),
                              [this, stream] { op_completed(stream); });
        return {};
      },
      [this, stream, op_key, app_id](Status failed) {
        // Retry budget exhausted: the failure becomes sticky on the stream
        // (never submitted, so no pending op leaks and the stream still
        // reaches idle for teardown).
        StreamRec& rec = stream_rec(stream);
        if (rec.fault == Status::Ok) {
          rec.fault = failed;
          if (options_.fault_injector != nullptr) {
            options_.fault_injector->note_launch_abort(sim_.now(), op_key,
                                                       app_id);
          }
        }
      }};
}

// ----------------------------------------------------------------- events

EventHandle Runtime::event_create() {
  const std::uint64_t id = next_event_id_++;
  events_.emplace(id, EventRec{});
  return EventHandle{id};
}

void Runtime::event_record(EventHandle event, Stream stream) {
  auto it = events_.find(event.id);
  HQ_CHECK_MSG(it != events_.end(), "invalid event id=" << event.id);
  it->second.recorded = true;
  it->second.complete = false;

  op_submitted(stream);
  device_.submit_marker(stream.id, {},
                        [this, id = event.id, stream] {
                          auto rec = events_.find(id);
                          if (rec != events_.end()) {
                            rec->second.complete = true;
                            rec->second.time = sim_.now();
                          }
                          op_completed(stream);
                        });
}

bool Runtime::event_complete(EventHandle event) const {
  auto it = events_.find(event.id);
  HQ_CHECK_MSG(it != events_.end(), "invalid event id=" << event.id);
  return it->second.complete;
}

TimeNs Runtime::event_time(EventHandle event) const {
  auto it = events_.find(event.id);
  HQ_CHECK_MSG(it != events_.end(), "invalid event id=" << event.id);
  HQ_CHECK_MSG(it->second.complete, "event not complete");
  return it->second.time;
}

Status Runtime::event_destroy(EventHandle event) {
  auto it = events_.find(event.id);
  if (it == events_.end()) return Status::InvalidHandle;
  events_.erase(it);
  return Status::Ok;
}

}  // namespace hq::rt
