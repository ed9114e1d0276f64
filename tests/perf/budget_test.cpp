// Deterministic event-count and allocation budget regression gate.
//
// Runs the canonical gaussian+nn pair at NA = NS = 16 and pins, exactly:
// the number of simulation events dispatched, the number of distinct span
// names interned, and that zero event callbacks overflowed the pool's slot
// size. On top of that it holds the run to a heap-allocation *budget*
// measured through a counting global operator new: the budget has ~25%
// headroom over the measured value, so routine drift passes but an
// accidental per-event or per-span allocation (about 1.3M events / 500K
// spans per run) blows through it immediately.
//
// This file is its own test binary: replacing the global allocator is a
// program-wide decision that must not leak into the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench/common.hpp"
#include "trace/trace.hpp"

// Counting global allocator. Counts every successful allocation; the test
// reads deltas around the measured region (single-threaded, so the deltas
// are exact).
//
// Every replaced operator new and operator delete goes through one
// out-of-line allocate/free pair. GCC's -Wmismatched-new-delete fires when
// it can see a replaced operator delete hand new'd memory to std::free after
// inlining; with a single noinline pair it never sees either side.
namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

[[gnu::noinline]] void* counted_alloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return p;
}

[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

void* counted_alloc_or_throw(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace hq {
namespace {

// ---- pinned exact values for gaussian+nn, NA=NS=16, NaiveFifo, seed 42 ----
// These are consequences of the simulation model, not the host: a change
// means the event schedule or span stream moved for everyone.
constexpr std::uint64_t kExpectedEvents = 683'135;
constexpr std::size_t kExpectedNameCount = 8;
// Heap-allocation budget for the run (measured + ~25% headroom). A per-event
// allocation regression overshoots this by two orders of magnitude.
constexpr std::uint64_t kAllocationBudget = 64'000;  // measured 50,627

fw::HarnessResult run_canonical() {
  return bench::run_pair({"gaussian", "nn"}, 16, 16, fw::Order::NaiveFifo,
                         /*memory_sync=*/false);
}

TEST(BudgetTest, EventCountAndInterningArePinnedExactly) {
  const auto result = run_canonical();
  EXPECT_EQ(result.events_processed, kExpectedEvents);
  EXPECT_EQ(result.trace->name_count(), kExpectedNameCount);
  // Spans vastly outnumber names: interning actually deduplicates.
  EXPECT_GT(result.trace->size(), result.trace->name_count() * 100);
}

TEST(BudgetTest, NoCallbackEverOverflowsThePool) {
  const auto result = run_canonical();
  const auto& cb = result.callback_stats;
  EXPECT_EQ(cb.oversize, 0u)
      << "a scheduled closure outgrew EventPool::kSlotBytes — shrink the "
         "capture or raise the slot size deliberately";
  // The hot path is dominated by inline storage (coroutine resumes and
  // small device closures), with the pool covering the rest.
  EXPECT_GT(cb.inline_stored, cb.pooled);
  EXPECT_LE(cb.pool_slabs, 4u);
}

TEST(BudgetTest, RunStaysWithinAllocationBudget) {
  // Warm-up run: registry singletons, gtest bookkeeping, freelist slabs.
  (void)run_canonical();

  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto result = run_canonical();
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;

  EXPECT_LE(allocs, kAllocationBudget)
      << "steady-state run allocated " << allocs << " times (budget "
      << kAllocationBudget << ", events " << result.events_processed
      << ") — did a per-event or per-span allocation sneak back in?";
  // And the budget must stay far below one allocation per event.
  EXPECT_LT(kAllocationBudget, result.events_processed / 4);
}

}  // namespace
}  // namespace hq
