#include "sim/simulator.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace hq::sim {

std::coroutine_handle<> Task::promise_type::FinalAwaiter::await_suspend(
    Task::Handle h) const noexcept {
  promise_type& p = h.promise();
  if (p.continuation) {
    // A parent is awaiting us; hand control straight back (same instant).
    return p.continuation;
  }
  if (p.owner != nullptr) {
    p.owner->on_root_task_finished(h);
  }
  return std::noop_coroutine();
}

Simulator::~Simulator() {
  reap_finished_tasks();
  for (Task::Handle h : live_tasks_) {
    h.destroy();
  }
}

void Simulator::reject_past(TimeNs t) const {
  HQ_CHECK_MSG(t >= now_, "cannot schedule into the past: t=" << t
                                                              << " now=" << now_);
}

void Simulator::enqueue(TimeNs t, EventFn&& fn) {
  HQ_CHECK_MSG(next_seq_ < kMaxSeq, "more than 2^40 events scheduled");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    HQ_CHECK_MSG(slots_.size() <= kSlotMask, "more than 2^24 events pending");
    slots_.emplace_back();
    slot = static_cast<std::uint32_t>(slots_.size() - 1);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const Key key{t, next_seq_ << kSlotBits | slot};
  if (root_vacant_) {
    // Replace-top: the running callback's first event takes the root its
    // own event vacated, settling with one sift_down.
    root_vacant_ = false;
    sift_down(key);
  } else {
    heap_.emplace_back();
    sift_up(key);
  }
  slots_[slot] = std::move(fn);
  ++next_seq_;
}

void Simulator::sift_up(Key key) {
  // Hole-based insertion into the 4-ary min-heap: bubble the hole at the
  // new leaf up, moving parents down, then drop the key in. Heap shape never
  // affects dispatch order: (time, seq) is a strict total order, so every
  // correct priority queue pops the same sequence.
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!(heap_[parent] > key)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Simulator::sift_down(Key key) noexcept {
  // Seat `key` at the root hole, moving the hole down instead of swapping.
  // The four 16-byte child keys scanned per level are one cache line's
  // worth of data.
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kHeapArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kHeapArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[best] > heap_[c]) best = c;
    }
    if (!(key > heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = key;
}

void Simulator::close_root() noexcept {
  // The dispatched callback scheduled nothing (or threw): fill the vacant
  // root with the tail, as a plain pop would.
  root_vacant_ = false;
  const Key tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(tail);
}

void Simulator::spawn(Task task) {
  HQ_CHECK_MSG(task.valid(), "spawn of an empty (moved-from or spawned) Task");
  Task::Handle h = task.release();
  h.promise().owner = this;
  live_tasks_.push_back(h);
  schedule(0, [h] { h.resume(); });
}

void Simulator::on_root_task_finished(Task::Handle h) {
  if (h.promise().exception && !pending_exception_) {
    pending_exception_ = h.promise().exception;
  }
  auto it = std::find(live_tasks_.begin(), live_tasks_.end(), h);
  HQ_CHECK(it != live_tasks_.end());
  live_tasks_.erase(it);
  // The coroutine is suspended at its final suspend point; it cannot destroy
  // itself, so defer destruction to the run loop.
  finished_tasks_.push_back(h);
}

void Simulator::dispatch_one() {
  const Key top = heap_.front();
  HQ_CHECK(top.time >= now_);
  // Move the callback out and free its slot before invoking: the callback
  // may schedule and so grow the slab, and the local keeps the storage
  // alive and reclaims a pooled slot even when the callback throws.
  const auto slot = static_cast<std::uint32_t>(top.seq_slot & kSlotMask);
  free_slots_.push_back(slot);
  EventFn fn = std::move(slots_[slot]);
  root_vacant_ = true;
  now_ = top.time;
  ++events_processed_;
  try {
    fn();
  } catch (...) {
    if (root_vacant_) close_root();
    throw;
  }
  if (root_vacant_) close_root();
  reap_finished_tasks();
  if (pending_exception_) {
    std::exception_ptr e = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

void Simulator::reap_finished_tasks() {
  for (Task::Handle h : finished_tasks_) {
    h.destroy();
  }
  finished_tasks_.clear();
}

std::size_t Simulator::run() {
  HQ_CHECK_MSG(!root_vacant_, "Simulator::run called from an event callback");
  const std::uint64_t before = events_processed_;
  while (!heap_.empty()) {
    dispatch_one();
  }
  return static_cast<std::size_t>(events_processed_ - before);
}

std::size_t Simulator::run_until(TimeNs t) {
  HQ_CHECK_MSG(t >= now_, "run_until into the past");
  HQ_CHECK_MSG(!root_vacant_,
               "Simulator::run_until called from an event callback");
  const std::uint64_t before = events_processed_;
  while (!heap_.empty() && heap_.front().time <= t) {
    dispatch_one();
  }
  now_ = std::max(now_, t);
  return static_cast<std::size_t>(events_processed_ - before);
}

}  // namespace hq::sim
