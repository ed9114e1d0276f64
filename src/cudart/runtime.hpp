// CUDA-runtime-like host API over the simulated device.
//
// This is the API surface the paper's Hyper-Q Management Framework wraps
// (its Kernel class methods encapsulate cudaMallocHost / cudaMalloc /
// cudaMemcpyAsync / kernel launches / cudaFree*, Table II). Operations are
// issued from simulated host threads (hq::sim::Task coroutines); every
// asynchronous submission costs driver-call time in virtual time, which is
// what makes concurrent host threads interleave their copy-queue submissions
// exactly as on real hardware.
//
// Memory objects carry a real backing store, so in functional mode transfers
// move actual bytes and kernels can compute on "device" data; tests verify
// the ported Rodinia algorithms end to end.
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "cudart/status.hpp"
#include "gpusim/device.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace hq::fault {
class FaultInjector;
}

namespace hq::rt {

/// Opaque handle to a device-memory allocation.
struct DevicePtr {
  std::uint64_t id = 0;
  bool null() const { return id == 0; }
  friend bool operator==(const DevicePtr&, const DevicePtr&) = default;
};

/// Opaque handle to a pinned host allocation.
struct HostPtr {
  std::uint64_t id = 0;
  bool null() const { return id == 0; }
  friend bool operator==(const HostPtr&, const HostPtr&) = default;
};

/// Opaque handle to a stream.
struct Stream {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
  friend bool operator==(const Stream&, const Stream&) = default;
};

/// Opaque handle to a timing event (cudaEvent analogue).
struct EventHandle {
  std::uint64_t id = 0;
  friend bool operator==(const EventHandle&, const EventHandle&) = default;
};

/// Kernel launch description at the API level.
struct LaunchConfig {
  std::string name;
  gpu::Dim3 grid;
  gpu::Dim3 block;
  std::uint32_t regs_per_thread = 32;
  Bytes smem_per_block = 0;
  DurationNs block_duration = kMicrosecond;
  double contention_sensitivity = 0.0;
  /// Functional payload executed at kernel completion.
  std::function<void()> body;
};

/// Retry discipline for transient submission failures: capped exponential
/// backoff while the submitting coroutine stays suspended (so the stream
/// submission *order* — and therefore the functional output — is unchanged
/// by retries). Attempt n waits min(base_backoff * multiplier^(n-1),
/// max_backoff) before re-submitting; after max_attempts total attempts the
/// failure becomes sticky on the stream.
struct RetryPolicy {
  int max_attempts = 4;
  DurationNs base_backoff = 20 * kMicrosecond;
  double multiplier = 2.0;
  DurationNs max_backoff = kMillisecond;
};

/// Mixes every retry knob into a grid key.
void mix_retry_policy(Fnv1a64& h, const RetryPolicy& policy);

/// Outcome of one submission attempt inside an AsyncSubmit.
struct SubmitOutcome {
  Status status = Status::Ok;
  /// Only retryable failures re-enter the backoff loop; non-retryable ones
  /// (e.g. ops on a stream already in fault state) surface immediately.
  bool retryable = false;
};

struct RuntimeOptions {
  /// Host driver overhead charged for an async memcpy submission.
  DurationNs memcpy_submit_overhead = 5 * kMicrosecond;
  /// Host driver overhead charged for a kernel launch submission.
  DurationNs kernel_submit_overhead = 5 * kMicrosecond;
  /// When false, transfers skip the actual byte movement (timing-only runs).
  bool functional = true;
  /// Retry discipline for transient launch failures.
  RetryPolicy retry;
  /// Optional hq_fault injector; when set, kernel-launch submissions and
  /// pinned host allocations consult it. Null = no faults (and, because the
  /// zero-fault path performs the identical single scheduled submission
  /// event, bit-identical schedules).
  fault::FaultInjector* fault_injector = nullptr;
};

/// Lifetime counters over all allocations; the basis for the hq_check
/// leak/double-free invariant (allocs == frees and no failed frees once a
/// run has torn down).
struct MemStats {
  std::uint64_t device_allocs = 0;
  std::uint64_t device_frees = 0;
  std::uint64_t host_allocs = 0;
  std::uint64_t host_frees = 0;
  /// free_device/free_host calls that failed with InvalidHandle — a
  /// double-free or a free of a never-allocated handle.
  std::uint64_t failed_frees = 0;
};

/// The runtime. One instance owns all allocations, streams, and events for
/// one device.
class Runtime {
 public:
  Runtime(sim::Simulator& sim, gpu::Device& device, RuntimeOptions options = {});

  // --- memory management ---------------------------------------------------
  /// Allocates device global memory; fails with OutOfMemory past capacity
  /// and InvalidValue for zero bytes.
  Result<DevicePtr> malloc_device(Bytes bytes);
  Status free_device(DevicePtr ptr);
  /// Allocates pinned host memory (cudaMallocHost analogue).
  Result<HostPtr> malloc_host(Bytes bytes);
  Status free_host(HostPtr ptr);

  Bytes device_bytes_in_use() const { return device_bytes_in_use_; }
  std::size_t device_allocation_count() const { return device_allocs_.size(); }
  std::size_t host_allocation_count() const { return host_allocs_.size(); }
  const MemStats& mem_stats() const { return mem_stats_; }

  /// Raw access to backing stores (functional mode).
  std::span<std::byte> host_bytes(HostPtr ptr);
  std::span<std::byte> device_bytes(DevicePtr ptr);

  /// Typed views; size must divide evenly.
  template <typename T>
  std::span<T> host_as(HostPtr ptr) {
    return typed_span<T>(host_bytes(ptr));
  }
  template <typename T>
  std::span<T> device_as(DevicePtr ptr) {
    return typed_span<T>(device_bytes(ptr));
  }

  // --- streams -------------------------------------------------------------
  Stream stream_create();
  /// cudaStreamCreateWithPriority analogue (CC 3.5 feature): lower value =
  /// higher priority. The device clamps nothing; any int is accepted.
  Stream stream_create_with_priority(int priority);
  /// Destroys an idle stream; returns NotReady if work is still pending.
  Status stream_destroy(Stream stream);
  std::size_t stream_count() const { return streams_.size(); }

  // --- asynchronous operations (awaitable submissions) ----------------------
  //
  // These return lightweight awaitables rather than sim::Task coroutines:
  // the awaiter object carries the submission closure and lives in the
  // calling coroutine's frame for the duration of the co_await expression.
  // (This also sidesteps GCC 12.2's double-destruction of non-trivially-
  // destructible coroutine parameters; see sim/task.hpp.)

  /// Awaitable submission: suspends the calling task for the driver
  /// overhead, then performs the enqueue. Must be co_awaited exactly once,
  /// and only as a *named local*:
  ///
  ///   auto op = rt.launch_kernel(stream, cfg);
  ///   co_await op;
  ///
  /// Awaiting the temporary directly (`co_await rt.launch_kernel(...)`) is
  /// disabled on purpose: GCC 12.2 miscompiles non-trivially-destructible
  /// temporaries inside co_await full-expressions (frame-slot reuse causing
  /// double destruction; see sim/task.hpp). The two-statement form keeps all
  /// non-trivial temporaries out of the co_await expression.
  class [[nodiscard]] AsyncSubmit {
   public:
    /// One submission attempt (1-based attempt number). Ok means the work
    /// was handed to the device; a retryable failure re-enters the backoff
    /// loop until the policy's attempt budget runs out.
    using Attempt = std::function<SubmitOutcome(int attempt)>;

    AsyncSubmit(sim::Simulator& sim, DurationNs overhead, RetryPolicy retry,
                Attempt attempt, std::function<void(Status)> give_up = nullptr)
        : sim_(sim),
          overhead_(overhead),
          retry_(retry),
          attempt_(std::move(attempt)),
          give_up_(std::move(give_up)) {}

    /// Wraps an infallible enqueue (the common, fault-free case).
    AsyncSubmit(sim::Simulator& sim, DurationNs overhead,
                std::function<void()> enqueue)
        : AsyncSubmit(sim, overhead, RetryPolicy{},
                      [enqueue = std::move(enqueue)](int) {
                        enqueue();
                        return SubmitOutcome{};
                      }) {}

    auto operator co_await() & noexcept {
      struct Awaiter {
        AsyncSubmit& op;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) const {
          // `op` is a named local in the caller's frame; it stays valid
          // across the suspension (including across backoff retries).
          op.run_attempt(h, 1, op.overhead_);
        }
        Status await_resume() const noexcept { return op.result_; }
      };
      return Awaiter{*this};
    }
    /// Deleted: bind the submission to a named local first (see above).
    auto operator co_await() && noexcept = delete;

    /// Final status after the co_await completed (also its result value).
    Status result() const { return result_; }

   private:
    void run_attempt(std::coroutine_handle<> h, int attempt, DurationNs delay);
    DurationNs backoff_after(int attempt) const;

    sim::Simulator& sim_;
    DurationNs overhead_;
    RetryPolicy retry_;
    Attempt attempt_;
    std::function<void(Status)> give_up_;
    Status result_ = Status::Ok;
  };

  /// Awaitable that suspends until a stream drains.
  class [[nodiscard]] StreamIdle {
   public:
    StreamIdle(Runtime& rt, Stream stream) : rt_(rt), stream_(stream) {}
    bool await_ready() const { return rt_.stream_rec(stream_).pending == 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      rt_.stream_rec(stream_).idle_waiters.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    Runtime& rt_;
    Stream stream_;
  };

  /// Awaitable that suspends until the whole device drains.
  class [[nodiscard]] DeviceIdle {
   public:
    explicit DeviceIdle(Runtime& rt) : rt_(rt) {}
    bool await_ready() const { return rt_.total_pending_ == 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      rt_.device_idle_waiters_.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    Runtime& rt_;
  };

  /// Validates a launch configuration against device limits.
  Status validate_launch(const LaunchConfig& config) const;

  /// Submits an async host-to-device copy of `bytes` from `src` to `dst`,
  /// starting `offset` bytes into both allocations. The awaitable completes
  /// when the *submission* is done (driver overhead elapsed); the copy
  /// itself completes in stream order. Handles and sizes are validated
  /// eagerly (throws hq::Error on misuse). A zero-byte copy is valid (as in
  /// CUDA): it costs the driver overhead and completes in stream order, but
  /// never reaches a copy engine.
  AsyncSubmit memcpy_htod_async(Stream stream, DevicePtr dst, HostPtr src,
                                Bytes bytes, gpu::OpTag tag = {},
                                Bytes offset = 0);
  /// Submits an async device-to-host copy.
  AsyncSubmit memcpy_dtoh_async(Stream stream, HostPtr dst, DevicePtr src,
                                Bytes bytes, gpu::OpTag tag = {},
                                Bytes offset = 0);
  /// Submits a kernel launch; throws hq::Error on an invalid configuration
  /// (use validate_launch for a non-throwing check).
  AsyncSubmit launch_kernel(Stream stream, LaunchConfig config,
                            gpu::OpTag tag = {});

  // --- synchronization -------------------------------------------------------
  /// Suspends until every operation submitted to the stream has completed.
  StreamIdle stream_synchronize(Stream stream) { return {*this, stream}; }
  /// Suspends until all streams are idle.
  DeviceIdle device_synchronize() { return DeviceIdle{*this}; }

  /// True when the stream has no pending operations.
  bool stream_query(Stream stream) const;

  /// Sticky fault status of a stream: Ok until a submission on it exhausted
  /// its retry budget, then the terminal status (every later submission on
  /// the stream fails fast with it, like a sticky CUDA context error scoped
  /// to the stream). The recovery layer uses this to quarantine the app.
  Status stream_fault(Stream stream) const { return stream_rec(stream).fault; }

  // --- events ----------------------------------------------------------------
  EventHandle event_create();
  /// Records the event on a stream: it captures the virtual time at which
  /// all prior work on the stream has finished. Submission is immediate.
  void event_record(EventHandle event, Stream stream);
  /// True once a recorded event has triggered.
  bool event_complete(EventHandle event) const;
  /// Completion time of a triggered event; throws if not yet complete.
  TimeNs event_time(EventHandle event) const;
  Status event_destroy(EventHandle event);

  gpu::Device& device() { return device_; }
  const RuntimeOptions& options() const { return options_; }

 private:
  /// Accounting-first allocation: `size` is tracked (and enforced against
  /// device capacity) at malloc time, but the zeroed backing store is only
  /// materialized on the first host_bytes/device_bytes access. Timing-only
  /// runs never touch their buffers, so they never pay the memset — and the
  /// first functional touch sees exactly the zero-filled state the eager
  /// allocation used to provide.
  struct Allocation {
    std::unique_ptr<std::byte[]> data;  ///< null until first byte access
    Bytes size = 0;
  };
  struct StreamRec {
    std::uint64_t pending = 0;
    std::vector<std::coroutine_handle<>> idle_waiters;
    bool alive = true;
    /// Sticky terminal status (Ok = healthy); see Runtime::stream_fault.
    Status fault = Status::Ok;
  };
  struct EventRec {
    bool recorded = false;
    bool complete = false;
    TimeNs time = 0;
  };

  template <typename T>
  static std::span<T> typed_span(std::span<std::byte> raw) {
    HQ_CHECK_MSG(raw.size() % sizeof(T) == 0,
                 "allocation size not a multiple of element size");
    return std::span<T>(reinterpret_cast<T*>(raw.data()),
                        raw.size() / sizeof(T));
  }

  StreamRec& stream_rec(Stream stream);
  const StreamRec& stream_rec(Stream stream) const;
  Allocation& device_alloc(DevicePtr ptr);
  Allocation& host_alloc(HostPtr ptr);
  void op_submitted(Stream stream);
  void op_completed(Stream stream);
  AsyncSubmit memcpy_impl(Stream stream, gpu::CopyDirection dir, HostPtr host,
                          DevicePtr dev, Bytes bytes, Bytes offset,
                          gpu::OpTag tag);

  sim::Simulator& sim_;
  gpu::Device& device_;
  RuntimeOptions options_;

  std::unordered_map<std::uint64_t, Allocation> device_allocs_;
  std::unordered_map<std::uint64_t, Allocation> host_allocs_;
  std::unordered_map<std::int32_t, StreamRec> streams_;
  std::unordered_map<std::uint64_t, EventRec> events_;
  std::uint64_t next_device_id_ = 1;
  std::uint64_t next_host_id_ = 1;
  std::int32_t next_stream_id_ = 0;
  std::uint64_t next_event_id_ = 1;
  Bytes device_bytes_in_use_ = 0;
  MemStats mem_stats_;

  std::uint64_t total_pending_ = 0;
  std::vector<std::coroutine_handle<>> device_idle_waiters_;

  /// Deterministic keys for fault draws: launch submissions and host
  /// allocations are numbered in issue order (virtual-time order, so the
  /// sequence is identical at any --jobs count).
  std::uint64_t next_launch_key_ = 0;
  std::uint64_t next_host_alloc_key_ = 0;
};

}  // namespace hq::rt
