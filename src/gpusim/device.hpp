// Simulated GPU device: Hyper-Q front end, block scheduler, copy engines,
// and the power/energy model.
//
// The device accepts stream-ordered operations (kernel launches and DMA
// transfers). Streams map round-robin onto the hardware work queues — 32 of
// them in Hyper-Q (Kepler) mode, one in the Fermi-mode ablation. Within a
// stream, operations execute strictly in submission order; across streams,
// concurrency is limited only by queue head-of-line blocking, the two copy
// engines, and SMX resources.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "gpusim/block_scheduler.hpp"
#include "gpusim/copy_engine.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/observer.hpp"
#include "gpusim/types.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace hq::gpu {

class Device {
 public:
  struct Stats {
    std::uint64_t kernels_completed = 0;
    std::uint64_t copies_htod = 0;
    std::uint64_t copies_dtoh = 0;
    Bytes bytes_htod = 0;
    Bytes bytes_dtoh = 0;
  };

  Device(sim::Simulator& sim, DeviceSpec spec,
         trace::Recorder* recorder = nullptr);

  /// Attaches (or detaches, with nullptr) a span recorder.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

  /// Attaches (or detaches, with nullptr) an event observer covering the
  /// front end, both copy engines, the block scheduler, and the power
  /// integrator. Used by the hq_check invariant layer.
  void set_observer(DeviceObserver* observer);

  /// Attaches (or detaches, with nullptr) the hq_fault copy-fault hook on
  /// every copy engine; the hook adds extra service time per transaction.
  void set_copy_fault_hook(CopyFaultHook hook);

  /// Registers a host stream and assigns it to a hardware work queue
  /// (round-robin). Must be called before submitting work on the stream.
  /// `priority` follows the CUDA convention (lower value = higher priority,
  /// 0 = default); it biases block placement order, never preempting
  /// resident blocks.
  void register_stream(StreamId stream, int priority = 0);

  /// Priority the stream was registered with.
  int priority_of(StreamId stream) const;

  /// Hardware work queue a stream is mapped to.
  int queue_of(StreamId stream) const;

  /// Submits a kernel launch on a stream. `on_complete` fires when the last
  /// thread block finishes. Returns the operation id.
  OpId submit_kernel(StreamId stream, KernelLaunch launch, OpTag tag,
                     std::function<void()> on_complete = nullptr);

  /// Submits a DMA transfer on a stream. `on_complete` fires when the engine
  /// finishes the transaction.
  OpId submit_copy(StreamId stream, CopyRequest request, OpTag tag,
                   std::function<void()> on_complete = nullptr);

  /// Submits a marker (CUDA-event record): completes, with zero device cost,
  /// as soon as every operation submitted to the stream before it has
  /// finished.
  OpId submit_marker(StreamId stream, OpTag tag,
                     std::function<void()> on_complete = nullptr);

  /// True when the stream has no submitted-but-unfinished operations.
  bool stream_idle(StreamId stream) const;

  /// Current virtual time of the owning simulator.
  TimeNs now() const { return sim_.now(); }

  // --- power & utilization -------------------------------------------------
  /// Board power implied by the current device state.
  Watts instantaneous_power() const;
  /// Exact integral of instantaneous power since construction.
  Joules energy() const;
  /// Time-weighted mean thread occupancy since construction, in [0,1].
  double average_occupancy() const;
  /// Total time (seconds) during which any kernel was resident or a copy
  /// engine was busy; basis for NVML-style utilization queries.
  double busy_seconds() const;
  /// Integral of thread occupancy over time (occupancy-seconds); windowed
  /// differences give mean occupancy over an interval.
  double occupancy_integral_seconds() const;
  double thread_occupancy() const { return scheduler_->thread_occupancy(); }
  int resident_blocks() const { return scheduler_->resident_blocks(); }

  const Stats& stats() const { return stats_; }
  const DeviceSpec& spec() const { return spec_; }
  const CopyEngine& htod_engine() const { return *htod_; }
  /// With a single copy engine (num_copy_engines == 1), this returns the
  /// shared engine.
  const CopyEngine& dtoh_engine() const { return dtoh_ ? *dtoh_ : *htod_; }
  const BlockScheduler& block_scheduler() const { return *scheduler_; }
  /// Mutable access for test-only fault injection (see set_fault_skip_head).
  BlockScheduler& block_scheduler_for_test() { return *scheduler_; }

 private:
  enum class OpKind : std::uint8_t { Kernel, Copy, Marker };

  struct Op {
    OpId id = 0;
    StreamId stream = 0;
    OpKind kind = OpKind::Kernel;
    OpTag tag;
    KernelLaunch kernel;
    CopyRequest copy;
    std::function<void()> on_complete;
    TimeNs submit_time = 0;
  };

  struct StreamState {
    int queue_id = 0;
    int priority = 0;
    /// Submission-ordered FIFO of unfinished ops; front is the only op whose
    /// hardware execution may begin (CUDA stream semantics).
    std::deque<std::unique_ptr<Op>> order;
  };

  struct WorkQueue {
    std::deque<Op*> fifo;
    bool dispatch_pending = false;
  };

  StreamState& stream_state(StreamId stream);
  const StreamState& stream_state(StreamId stream) const;
  bool is_stream_front(const Op* op) const;
  /// Examines a work queue's head and dispatches it to the block scheduler
  /// after the grid-management latency if its stream dependency is met.
  void pump_queue(int queue_id);
  /// Called when an op finishes on the hardware; advances the stream.
  void complete_op(Op* op);
  void on_kernel_complete(const KernelExec& exec);
  /// Engine serving a direction (the shared engine in single-engine mode).
  CopyEngine& engine_for(CopyDirection direction);
  /// Integrates power/occupancy up to the current instant; must run before
  /// every state mutation.
  void pre_state_change();
  /// The u^exponent term of the dynamic-power model, read from a table
  /// indexed by resident-thread count (u is a pure function of it). std::pow
  /// dominated the power integrator before the table; each entry is the
  /// exact double std::pow returns, so energies are bit-identical.
  double dynamic_power_term() const;

  sim::Simulator& sim_;
  DeviceSpec spec_;
  trace::Recorder* recorder_;
  DeviceObserver* observer_ = nullptr;

  std::unique_ptr<BlockScheduler> scheduler_;
  std::unique_ptr<CopyEngine> htod_;
  std::unique_ptr<CopyEngine> dtoh_;

  std::unordered_map<StreamId, StreamState> streams_;
  std::vector<WorkQueue> queues_;
  std::unordered_map<OpId, Op*> dispatched_kernels_;
  int next_queue_rr_ = 0;
  OpId next_op_id_ = 1;
  Stats stats_;

  bool is_active() const;

  // Power/energy integration state.
  Joules energy_j_ = 0.0;
  double occupancy_weighted_ns_ = 0.0;
  double busy_ns_ = 0.0;
  TimeNs last_integration_ = 0;
  /// pow(u, exponent) for every resident_threads in [0, max]: immutable and
  /// shared by every device with the same max_resident_threads and
  /// power_exponent (see device.cpp).
  std::span<const double> dyn_pow_table_;
};

}  // namespace hq::gpu
