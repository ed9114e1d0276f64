#include "gpusim/device.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string_view>
#include <utility>

#include "common/check.hpp"

namespace hq::gpu {

namespace {

/// The table behind Device::dynamic_power_term: entry rt is
/// pow(rt / max_threads, exponent), computed with the same division the
/// block scheduler caches as thread_occupancy(), so every entry is the
/// double a direct std::pow call would return. One immutable table per
/// distinct (max_threads, exponent), built once under a lock and kept for
/// the life of the process, so devices on sweep worker threads share it
/// without racing; a process sees only a few distinct device shapes.
const std::vector<double>& dynamic_power_table(int max_threads,
                                               double exponent) {
  static std::mutex mutex;
  static std::map<std::pair<int, std::uint64_t>,
                  std::unique_ptr<const std::vector<double>>>
      tables;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& table = tables[{max_threads, std::bit_cast<std::uint64_t>(exponent)}];
  if (table == nullptr) {
    std::vector<double> pows(
        static_cast<std::size_t>(std::max(max_threads, 0)) + 1);
    for (std::size_t rt = 0; rt < pows.size(); ++rt) {
      const double u =
          static_cast<double>(rt) / static_cast<double>(max_threads);
      pows[rt] = std::pow(u, exponent);
    }
    table = std::make_unique<const std::vector<double>>(std::move(pows));
  }
  return *table;
}

}  // namespace

Device::Device(sim::Simulator& sim, DeviceSpec spec, trace::Recorder* recorder)
    : sim_(sim), spec_(std::move(spec)), recorder_(recorder) {
  HQ_CHECK(spec_.num_work_queues >= 1);
  HQ_CHECK(spec_.num_smx >= 1);
  scheduler_ = std::make_unique<BlockScheduler>(
      sim_, spec_, [this] { pre_state_change(); },
      [this](const KernelExec& exec) { on_kernel_complete(exec); });
  HQ_CHECK(spec_.num_copy_engines == 1 || spec_.num_copy_engines == 2);
  htod_ = std::make_unique<CopyEngine>(sim_, CopyDirection::HtoD,
                                       spec_.htod_bytes_per_sec,
                                       spec_.copy_overhead,
                                       [this] { pre_state_change(); });
  if (spec_.num_copy_engines == 2) {
    dtoh_ = std::make_unique<CopyEngine>(sim_, CopyDirection::DtoH,
                                         spec_.dtoh_bytes_per_sec,
                                         spec_.copy_overhead,
                                         [this] { pre_state_change(); });
  }
  queues_.resize(static_cast<std::size_t>(spec_.num_work_queues));
  dyn_pow_table_ = dynamic_power_table(spec_.max_resident_threads(),
                                       spec_.power_exponent);
  last_integration_ = sim_.now();
}

void Device::set_observer(DeviceObserver* observer) {
  observer_ = observer;
  scheduler_->set_observer(observer);
  htod_->set_observer(observer);
  if (dtoh_) dtoh_->set_observer(observer);
}

void Device::set_copy_fault_hook(CopyFaultHook hook) {
  htod_->set_fault_hook(hook);
  if (dtoh_) dtoh_->set_fault_hook(std::move(hook));
}

void Device::register_stream(StreamId stream, int priority) {
  HQ_CHECK_MSG(streams_.find(stream) == streams_.end(),
               "stream " << stream << " registered twice");
  StreamState state;
  state.queue_id = next_queue_rr_;
  state.priority = priority;
  next_queue_rr_ = (next_queue_rr_ + 1) % spec_.num_work_queues;
  streams_.emplace(stream, std::move(state));
}

int Device::priority_of(StreamId stream) const {
  return stream_state(stream).priority;
}

int Device::queue_of(StreamId stream) const {
  return stream_state(stream).queue_id;
}

Device::StreamState& Device::stream_state(StreamId stream) {
  auto it = streams_.find(stream);
  HQ_CHECK_MSG(it != streams_.end(), "unknown stream " << stream);
  return it->second;
}

const Device::StreamState& Device::stream_state(StreamId stream) const {
  auto it = streams_.find(stream);
  HQ_CHECK_MSG(it != streams_.end(), "unknown stream " << stream);
  return it->second;
}

bool Device::is_stream_front(const Op* op) const {
  const StreamState& state = stream_state(op->stream);
  return !state.order.empty() && state.order.front().get() == op;
}

bool Device::stream_idle(StreamId stream) const {
  return stream_state(stream).order.empty();
}

OpId Device::submit_kernel(StreamId stream, KernelLaunch launch, OpTag tag,
                           std::function<void()> on_complete) {
  // Validate against hardware limits; the runtime surfaces friendlier errors
  // before reaching this point.
  HQ_CHECK(launch.grid.count() >= 1);
  HQ_CHECK(launch.block.count() >= 1);
  HQ_CHECK(static_cast<int>(launch.block.count()) <=
           spec_.max_threads_per_block);

  auto op = std::make_unique<Op>();
  op->id = next_op_id_++;
  op->stream = stream;
  op->kind = OpKind::Kernel;
  op->tag = std::move(tag);
  op->kernel = std::move(launch);
  op->submit_time = sim_.now();

  Op* raw = op.get();
  StreamState& state = stream_state(stream);
  op->on_complete = std::move(on_complete);
  state.order.push_back(std::move(op));
  if (observer_ != nullptr) {
    observer_->on_op_submitted(sim_.now(), raw->id, stream, ObservedOp::Kernel);
  }
  queues_[static_cast<std::size_t>(state.queue_id)].fifo.push_back(raw);
  pump_queue(state.queue_id);
  return raw->id;
}

OpId Device::submit_copy(StreamId stream, CopyRequest request, OpTag tag,
                         std::function<void()> on_complete) {
  HQ_CHECK(request.bytes > 0);

  auto op = std::make_unique<Op>();
  op->id = next_op_id_++;
  op->stream = stream;
  op->kind = OpKind::Copy;
  op->tag = std::move(tag);
  op->copy = std::move(request);
  op->on_complete = std::move(on_complete);
  op->submit_time = sim_.now();

  Op* raw = op.get();
  stream_state(stream).order.push_back(std::move(op));
  if (observer_ != nullptr) {
    observer_->on_op_submitted(sim_.now(), raw->id, stream, ObservedOp::Copy);
  }

  CopyEngine& engine = engine_for(raw->copy.direction);
  engine.enqueue(CopyEngine::Transaction{
      raw->id, stream, raw->copy.bytes,
      /*ready=*/[this, raw] { return is_stream_front(raw); },
      /*on_served=*/
      [this, raw](TimeNs begin, TimeNs end) {
        if (raw->copy.payload) raw->copy.payload();
        if (recorder_ != nullptr) {
          recorder_->add(raw->stream, raw->tag.app_id,
                         raw->copy.direction == CopyDirection::HtoD
                             ? trace::SpanKind::MemcpyHtoD
                             : trace::SpanKind::MemcpyDtoH,
                         raw->tag.label.empty()
                             ? std::string_view(
                                   copy_direction_name(raw->copy.direction))
                             : std::string_view(raw->tag.label),
                         begin, end);
        }
        if (raw->copy.direction == CopyDirection::HtoD) {
          ++stats_.copies_htod;
          stats_.bytes_htod += raw->copy.bytes;
        } else {
          ++stats_.copies_dtoh;
          stats_.bytes_dtoh += raw->copy.bytes;
        }
        complete_op(raw);
      },
      /*app_id=*/raw->tag.app_id});
  return raw->id;
}

OpId Device::submit_marker(StreamId stream, OpTag tag,
                           std::function<void()> on_complete) {
  auto op = std::make_unique<Op>();
  op->id = next_op_id_++;
  op->stream = stream;
  op->kind = OpKind::Marker;
  op->tag = std::move(tag);
  op->on_complete = std::move(on_complete);
  op->submit_time = sim_.now();

  Op* raw = op.get();
  stream_state(stream).order.push_back(std::move(op));
  if (observer_ != nullptr) {
    observer_->on_op_submitted(sim_.now(), raw->id, stream, ObservedOp::Marker);
  }
  if (is_stream_front(raw)) {
    sim_.schedule(0, [this, raw] { complete_op(raw); });
  }
  return raw->id;
}

void Device::pump_queue(int queue_id) {
  WorkQueue& wq = queues_[static_cast<std::size_t>(queue_id)];
  if (wq.dispatch_pending || wq.fifo.empty()) return;
  Op* head = wq.fifo.front();
  if (!is_stream_front(head)) return;  // head-of-line blocking

  wq.dispatch_pending = true;
  sim_.schedule(spec_.kernel_dispatch_latency, [this, queue_id] {
    WorkQueue& q = queues_[static_cast<std::size_t>(queue_id)];
    HQ_CHECK(!q.fifo.empty());
    Op* op = q.fifo.front();
    q.fifo.pop_front();
    q.dispatch_pending = false;

    auto exec = std::make_unique<KernelExec>();
    exec->op_id = op->id;
    exec->stream = op->stream;
    exec->priority = stream_state(op->stream).priority;
    exec->tag = op->tag;
    exec->launch = std::move(op->kernel);
    dispatched_kernels_.emplace(op->id, op);
    scheduler_->dispatch(std::move(exec));
    pump_queue(queue_id);
  });
}

void Device::on_kernel_complete(const KernelExec& exec) {
  auto it = dispatched_kernels_.find(exec.op_id);
  HQ_CHECK(it != dispatched_kernels_.end());
  Op* op = it->second;
  dispatched_kernels_.erase(it);

  if (recorder_ != nullptr) {
    recorder_->add(exec.stream, exec.tag.app_id, trace::SpanKind::Kernel,
                   exec.launch.name, exec.first_block_time,
                   exec.complete_time);
  }
  ++stats_.kernels_completed;
  if (observer_ != nullptr) observer_->on_kernel_completed(sim_.now(), exec);
  complete_op(op);
}

void Device::complete_op(Op* op) {
  StreamState& state = stream_state(op->stream);
  HQ_CHECK_MSG(!state.order.empty() && state.order.front().get() == op,
               "op completing out of stream order");
  if (observer_ != nullptr) {
    observer_->on_op_completed(sim_.now(), op->id, op->stream);
  }
  // Keep the op alive until its callback has run.
  std::unique_ptr<Op> owned = std::move(state.order.front());
  state.order.pop_front();
  const int queue_id = state.queue_id;

  if (owned->on_complete) owned->on_complete();

  // The stream's next operation (if any) may now be eligible wherever it
  // sits: its work queue, either copy engine, or — for a marker — it simply
  // completes at this instant.
  if (!state.order.empty() && state.order.front()->kind == OpKind::Marker) {
    Op* marker = state.order.front().get();
    sim_.schedule(0, [this, marker] { complete_op(marker); });
  }
  pump_queue(queue_id);
  htod_->pump();
  if (dtoh_) dtoh_->pump();
}

CopyEngine& Device::engine_for(CopyDirection direction) {
  if (direction == CopyDirection::DtoH && dtoh_) return *dtoh_;
  return *htod_;
}

bool Device::is_active() const {
  return scheduler_->resident_blocks() > 0 || htod_->busy() ||
         (dtoh_ && dtoh_->busy());
}

void Device::pre_state_change() {
  const TimeNs now = sim_.now();
  if (now > last_integration_) {
    const double dt_ns = static_cast<double>(now - last_integration_);
    // One evaluation serves the observer and the integrator: the device
    // state is unchanged between the two reads, so this is the same value
    // (bit-identical) the old double evaluation produced, at half the cost.
    const Watts power = instantaneous_power();
    const double occupancy = scheduler_->thread_occupancy();
    // The power reported to the observer is the piecewise-constant value in
    // effect over [last_integration_, now]; the checker integrates the same
    // quantity independently.
    if (observer_ != nullptr) {
      observer_->on_power_integrated(now, power, occupancy);
    }
    energy_j_ += power * dt_ns / 1e9;
    occupancy_weighted_ns_ += occupancy * dt_ns;
    if (is_active()) busy_ns_ += dt_ns;
    last_integration_ = now;
  }
}

double Device::occupancy_integral_seconds() const {
  const double tail_ns = scheduler_->thread_occupancy() *
                         static_cast<double>(sim_.now() - last_integration_);
  return (occupancy_weighted_ns_ + tail_ns) / 1e9;
}

double Device::busy_seconds() const {
  const double tail_ns = is_active()
                             ? static_cast<double>(sim_.now() - last_integration_)
                             : 0.0;
  return (busy_ns_ + tail_ns) / 1e9;
}

double Device::dynamic_power_term() const {
  const int rt = scheduler_->resident_threads();
  if (rt >= 0 && static_cast<std::size_t>(rt) < dyn_pow_table_.size()) {
    return dyn_pow_table_[static_cast<std::size_t>(rt)];
  }
  return std::pow(scheduler_->thread_occupancy(),
                  spec_.power_exponent);  // defensive; unseen
}

Watts Device::instantaneous_power() const {
  const double u = scheduler_->thread_occupancy();
  const bool active = is_active();
  Watts p = spec_.idle_power;
  if (active) p += spec_.active_base_power;
  if (u > 0.0) p += spec_.max_dynamic_power * dynamic_power_term();
  if (htod_->busy()) p += spec_.copy_engine_power;
  if (dtoh_ && dtoh_->busy()) p += spec_.copy_engine_power;
  return p;
}

Joules Device::energy() const {
  const double dt_ns = static_cast<double>(sim_.now() - last_integration_);
  return energy_j_ + instantaneous_power() * dt_ns / 1e9;
}

double Device::average_occupancy() const {
  const TimeNs now = sim_.now();
  if (now == 0) return 0.0;
  const double tail_ns = static_cast<double>(now - last_integration_);
  const double weighted =
      occupancy_weighted_ns_ + scheduler_->thread_occupancy() * tail_ns;
  return weighted / static_cast<double>(now);
}

}  // namespace hq::gpu
