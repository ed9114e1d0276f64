// Deterministic discrete-event simulator.
//
// Single-threaded virtual-time engine with FIFO tie-breaking on a
// (time, sequence) key, so identical inputs always produce identical
// schedules — the property every experiment in this repository relies on.
//
// The event queue is a 4-ary min-heap of 16-byte keys: the time plus one
// word packing the sequence number (high 40 bits) and a slot index (low
// 24 bits) into a slab of callbacks. Sifts move keys only; a callback stays
// in its slot from schedule to dispatch. Dispatch is replace-top: the root
// is left empty while its callback runs, and the first event that callback
// schedules is sifted down from the root in one pass instead of a pop
// followed by a push.
//
// Event callbacks are stored in sim::EventFn (see sim/event_fn.hpp): small
// trivially-copyable closures live inline in their slab slot, larger ones
// in a per-simulator recycled pool, so steady-state scheduling performs no
// heap allocation. Callback storage never affects dispatch order — the
// (time, seq) key alone decides it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/event_fn.hpp"
#include "sim/task.hpp"

namespace hq::sim {

/// Discrete-event simulation engine with a virtual nanosecond clock.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Destroys any still-suspended spawned tasks. Their local destructors run,
  /// so objects they reference (mutexes, events) must still be alive; in
  /// normal use every task has finished before the simulator is destroyed.
  ~Simulator();

  /// Current virtual time.
  TimeNs now() const { return now_; }

  /// Schedules a callback `delay` nanoseconds from now. Events scheduled for
  /// the same instant run in scheduling order.
  template <typename F>
  void schedule(DurationNs delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules a callback at absolute virtual time `t` (must be >= now()).
  template <typename F>
  void schedule_at(TimeNs t, F&& fn) {
    if (t < now_) [[unlikely]] reject_past(t);
    enqueue(t, EventFn(pool_, callback_stats_, std::forward<F>(fn)));
  }

  /// Awaitable that suspends the current task for `d` nanoseconds. A zero
  /// delay still suspends and requeues, providing a deterministic yield
  /// point.
  auto delay(DurationNs d) {
    struct Awaiter {
      Simulator& sim;
      DurationNs dur;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim.schedule(dur, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Starts a root task: the simulator takes ownership of the coroutine and
  /// resumes it at the current virtual time (in spawn order relative to other
  /// events at the same instant).
  void spawn(Task task);

  /// Pre-sizes the event heap and callback slab for a run expected to keep
  /// up to `pending` events in flight at once (a capacity hint, not a
  /// limit). Harnesses call this with a workload-derived estimate so neither
  /// reallocates mid-run.
  void reserve_events(std::size_t pending) {
    heap_.reserve(pending);
    slots_.reserve(pending);
    free_slots_.reserve(pending);
  }

  /// Runs until the event queue is empty. Returns events processed by this
  /// call. Rethrows the first exception escaping a root task.
  std::size_t run();

  /// Runs all events with time <= t, then advances the clock to exactly t.
  std::size_t run_until(TimeNs t);

  /// Convenience: run_until(now() + d).
  std::size_t run_for(DurationNs d) { return run_until(now_ + d); }

  /// Both leave out the root a running callback's event vacated.
  bool idle() const { return pending_events() == 0; }
  std::size_t pending_events() const {
    return heap_.size() - (root_vacant_ ? 1 : 0);
  }
  std::uint64_t events_processed() const { return events_processed_; }

  /// How scheduled callbacks were stored so far (inline / pooled / oversize).
  /// Deterministic for a fixed scenario; the perf budget test pins these.
  CallbackStats callback_stats() const {
    CallbackStats s = callback_stats_;
    s.pool_slabs = pool_.slabs();
    return s;
  }

  /// Number of spawned root tasks that have not yet completed.
  std::size_t live_tasks() const { return live_tasks_.size(); }

 private:
  friend struct Task::promise_type;

  /// Heap entry: `seq_slot` packs the sequence number above the slot index.
  /// Sequence numbers are unique, so comparing the packed word orders equal
  /// times exactly as comparing `seq` alone would.
  struct Key {
    TimeNs time;
    std::uint64_t seq_slot;
    bool operator>(const Key& other) const {
      if (time != other.time) return time > other.time;
      return seq_slot > other.seq_slot;
    }
  };

  /// Called from a root task's final suspend point.
  void on_root_task_finished(Task::Handle h);

  void reject_past(TimeNs t) const;  // throws hq::Error
  void enqueue(TimeNs t, EventFn&& fn);
  void sift_up(Key key);
  void sift_down(Key key) noexcept;
  void close_root() noexcept;
  void dispatch_one();
  void reap_finished_tasks();

  /// Heap fan-out. Four children halve the sift depth versus a binary heap
  /// and the arity is invisible to results: (time, seq) is a strict total
  /// order, so the pop sequence is the same for any correct priority queue.
  static constexpr std::size_t kHeapArity = 4;
  /// Low bits of Key::seq_slot holding the slot index: at most 2^24 events
  /// pending at once, and 2^40 scheduled over a simulator's lifetime.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  // pool_ must be declared before slots_: pending pooled events destroyed
  // with the simulator return their storage to the pool, so the pool has to
  // outlive the slab (members are destroyed in reverse declaration order).
  EventPool pool_;
  CallbackStats callback_stats_;
  std::vector<EventFn> slots_;             // callback slab, indexed by slot
  std::vector<std::uint32_t> free_slots_;  // stack of vacant slab slots
  std::vector<Key> heap_;                  // 4-ary min-heap on (time, seq)
  // True while a dispatched callback runs and heap_[0] is the empty root its
  // event left: the callback's first schedule fills it with one sift_down.
  bool root_vacant_ = false;
  std::vector<Task::Handle> live_tasks_;
  std::vector<Task::Handle> finished_tasks_;
  std::exception_ptr pending_exception_;
};

}  // namespace hq::sim
