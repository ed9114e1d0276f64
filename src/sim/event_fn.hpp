// Small-buffer-optimized event callbacks for the discrete-event simulator.
//
// Every scheduled event used to carry a std::function<void()>; closures
// above std::function's tiny inline buffer (16 bytes on libstdc++) forced
// one heap allocation + free per event — ~1.3M malloc/free pairs per
// simulated run, and the dominant cross-thread contention source when
// sweeps fan runs out over a pool. EventFn replaces it:
//
//   * trivially-copyable closures up to kInlineBytes (24) are stored inline
//     in the EventFn — that is, in the event's slot of the simulator's
//     callback slab — which covers the coroutine-resume ([h]) and all
//     harness/device closures on the hot path;
//   * anything larger (or not trivially copyable) is placement-newed into a
//     fixed-size slot from a per-simulator EventPool freelist, so even the
//     rare big closures (e.g. the copy-engine completion, which captures a
//     whole Transaction) recycle storage instead of hitting the allocator;
//   * closures larger than EventPool::kSlotBytes fall back to operator new
//     and are counted (CallbackStats::oversize) so a regression test can
//     pin the hot path at zero oversize allocations.
//
// Semantics match std::function<void()> where it matters: invocation order
// is untouched (the simulator's (time, seq) heap provides FIFO tie-breaks),
// and exceptions thrown by the callable propagate out of operator()
// unchanged, with the storage reclaimed by the owner's destructor.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace hq::sim {

/// Counters describing how event callbacks were stored (per simulator).
struct CallbackStats {
  std::uint64_t inline_stored = 0;  ///< fit in the EventFn's inline buffer
  std::uint64_t pooled = 0;         ///< placed in a recycled pool slot
  std::uint64_t oversize = 0;       ///< exceeded kSlotBytes; plain heap
  std::uint64_t pool_slabs = 0;     ///< slabs the pool carved slots from
};

/// Freelist of fixed-size storage slots for out-of-line event closures.
/// Slots are carved from slabs in bulk and recycled for the lifetime of the
/// owning simulator, so steady-state event scheduling performs no heap
/// allocation at all.
class EventPool {
 public:
  /// Large enough for every closure in the tree that exceeds the inline
  /// buffer (the biggest is the copy-engine completion at ~120 bytes).
  static constexpr std::size_t kSlotBytes = 192;
  static constexpr std::size_t kSlotAlign = alignof(std::max_align_t);
  static constexpr std::size_t kSlotsPerSlab = 64;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  void* allocate() {
    if (free_.empty()) grow();
    void* p = free_.back();
    free_.pop_back();
    return p;
  }

  void deallocate(void* p) noexcept { free_.push_back(p); }

  std::uint64_t slabs() const { return static_cast<std::uint64_t>(slabs_.size()); }

 private:
  void grow() {
    auto slab = std::make_unique<std::byte[]>(kSlotBytes * kSlotsPerSlab);
    std::byte* base = slab.get();
    free_.reserve(free_.size() + kSlotsPerSlab);
    for (std::size_t i = 0; i < kSlotsPerSlab; ++i) {
      free_.push_back(base + i * kSlotBytes);
    }
    slabs_.push_back(std::move(slab));
  }

  std::vector<void*> free_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
};

/// Move-only type-erased void() callable with 24-byte inline storage and a
/// pool-backed out-of-line path. Built exclusively through the owning
/// simulator (which supplies the pool and keeps the counters).
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 24;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  EventFn() = default;

  template <typename F>
  EventFn(EventPool& pool, CallbackStats& stats, F&& fn) {
    using T = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, T&>,
                  "event callbacks take no arguments and return void");
    if constexpr (fits_inline<T>()) {
      ::new (static_cast<void*>(inline_)) T(std::forward<F>(fn));
      ops_ = &kInlineOps<T>;
      ++stats.inline_stored;
    } else {
      if constexpr (sizeof(Node<T>) <= EventPool::kSlotBytes &&
                    alignof(Node<T>) <= EventPool::kSlotAlign) {
        void* slot = pool.allocate();
        try {
          out_.node = ::new (slot) Node<T>{std::forward<F>(fn), &pool};
        } catch (...) {
          // T's move/copy constructor threw; return the slot to the freelist
          // instead of leaking it (the oversize path below gets this for
          // free from the new-expression).
          pool.deallocate(slot);
          throw;
        }
        ops_ = &kPooledOps<T>;
        ++stats.pooled;
      } else {
        out_.node = new Node<T>{std::forward<F>(fn), nullptr};
        ops_ = &kOversizeOps<T>;
        ++stats.oversize;
      }
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    // Inline closures are trivially copyable by construction, so a raw byte
    // copy of the full union (inline_ is its largest member) moves either
    // representation.
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    other.ops_ = nullptr;
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      destroy();
      ops_ = other.ops_;
      std::memcpy(inline_, other.inline_, sizeof(inline_));
      other.ops_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { destroy(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable; exceptions propagate to the caller exactly as
  /// they would through std::function. The storage stays valid until this
  /// EventFn is destroyed (the simulator moves a dispatched callback out of
  /// its slab slot and destroys it even when the callback throws).
  void operator()() {
    HQ_CHECK_MSG(ops_ != nullptr, "invoking an empty EventFn");
    ops_->invoke(*this);
  }

  /// True when the callable lives in the event's inline buffer.
  bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->destroy == nullptr;
  }

 private:
  template <typename T>
  struct Node {
    T fn;
    EventPool* pool;  // nullptr for the oversize (plain heap) path
  };

  struct Ops {
    void (*invoke)(EventFn&);
    void (*destroy)(EventFn&) noexcept;  // nullptr: inline, trivial dtor
  };

  template <typename T>
  static constexpr bool fits_inline() {
    return std::is_trivially_copyable_v<T> &&
           std::is_trivially_destructible_v<T> && sizeof(T) <= kInlineBytes &&
           alignof(T) <= kInlineAlign;
  }

  template <typename T>
  static void invoke_inline(EventFn& e) {
    (*std::launder(reinterpret_cast<T*>(e.inline_)))();
  }

  template <typename T>
  static void invoke_node(EventFn& e) {
    (*static_cast<Node<T>*>(e.out_.node)).fn();
  }

  template <typename T>
  static void destroy_pooled(EventFn& e) noexcept {
    auto* node = static_cast<Node<T>*>(e.out_.node);
    EventPool* pool = node->pool;
    node->~Node<T>();
    pool->deallocate(node);
  }

  template <typename T>
  static void destroy_oversize(EventFn& e) noexcept {
    delete static_cast<Node<T>*>(e.out_.node);
  }

  template <typename T>
  static constexpr Ops kInlineOps{&invoke_inline<T>, nullptr};
  template <typename T>
  static constexpr Ops kPooledOps{&invoke_node<T>, &destroy_pooled<T>};
  template <typename T>
  static constexpr Ops kOversizeOps{&invoke_node<T>, &destroy_oversize<T>};

  void destroy() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(*this);
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  union {
    alignas(kInlineAlign) std::byte inline_[kInlineBytes];
    struct {
      void* node;
    } out_;
  };
};

}  // namespace hq::sim
