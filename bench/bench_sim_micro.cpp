// Substrate microbenchmarks (google-benchmark): event-queue throughput,
// coroutine task switching, block-scheduler placement, copy-engine service,
// and a full harness run. These bound the cost of the simulation itself,
// not the modelled hardware.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench/common.hpp"
#include "gpusim/device.hpp"
#include "hyperq/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hq;

void BM_EventQueueThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < n; ++i) {
      sim.schedule(static_cast<DurationNs>((i * 7919) % 1000), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

// Steady-state hold model: `n` events stay pending, and every dispatched
// event schedules exactly one successor a pseudo-random delay ahead — the
// block-completion pattern, where each completion places the next block.
// Each step is a pop and a push on the same heap, which the drain-only
// benchmark above never exercises.
struct HoldEvent {
  sim::Simulator* sim;
  std::uint64_t* rng;
  void operator()() const {
    std::uint64_t x = *rng;  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    sim->schedule(1 + x % 2000, *this);  // mean delay ~1 us
  }
};

void BM_EventQueueHold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulator sim;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < n; ++i) {
    sim.schedule(static_cast<DurationNs>((i * 7919) % 2000),
                 HoldEvent{&sim, &rng});
  }
  std::int64_t events = 0;
  for (auto _ : state) {
    // ~n dispatches per iteration: the pending set turns over once.
    events += static_cast<std::int64_t>(sim.run_for(kMicrosecond));
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventQueueHold)->Arg(1000)->Arg(100000);

sim::Task ping_pong(sim::Simulator* sim, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await sim->delay(1);
  }
}

void BM_CoroutineSwitching(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim.spawn(ping_pong(&sim, hops));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineSwitching)->Arg(10000);

void BM_BlockSchedulerWaves(benchmark::State& state) {
  // A 1024-block kernel executing in ~10 waves, like gaussian Fan2.
  for (auto _ : state) {
    sim::Simulator sim;
    gpu::Device device(sim, gpu::DeviceSpec::tesla_k20());
    device.register_stream(0);
    device.submit_kernel(0,
                         gpu::KernelLaunch{"fan2",
                                           gpu::Dim3{1024, 1, 1},
                                           gpu::Dim3{256, 1, 1},
                                           20,
                                           0,
                                           3 * kMicrosecond,
                                           0.0,
                                           nullptr},
                         {});
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_BlockSchedulerWaves);

void BM_CopyEngineTransactions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    gpu::Device device(sim, gpu::DeviceSpec::tesla_k20());
    device.register_stream(0);
    for (int i = 0; i < n; ++i) {
      device.submit_copy(
          0, gpu::CopyRequest{gpu::CopyDirection::HtoD, 64 * kKiB, nullptr},
          {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CopyEngineTransactions)->Arg(1000);

trace::Recorder synthetic_transfer_trace(int apps, int spans_per_app) {
  trace::Recorder rec;
  TimeNs t = 0;
  for (int s = 0; s < spans_per_app; ++s) {
    for (int a = 0; a < apps; ++a) {
      rec.add(a, a, trace::SpanKind::MemcpyHtoD, "h2d", t, t + 1000);
      t += 1500;
    }
  }
  return rec;
}

// Per-app Le extraction, the quadratic way: one full recorder scan (plus a
// span copy inside by_app-style filtering) per application.
void BM_PerAppLatencyScan(benchmark::State& state) {
  const int apps = static_cast<int>(state.range(0));
  const trace::Recorder rec = synthetic_transfer_trace(apps, 64);
  for (auto _ : state) {
    DurationNs total = 0;
    for (int a = 0; a < apps; ++a) {
      total += fw::effective_transfer_latency(rec, a,
                                              trace::SpanKind::MemcpyHtoD)
                   .value_or(0);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * apps);
}
BENCHMARK(BM_PerAppLatencyScan)->Arg(8)->Arg(64);

// Same extraction through a trace::AppIndex built once: one pass over the
// spans total, then O(own spans) per app — the path the harness uses.
void BM_PerAppLatencyIndexed(benchmark::State& state) {
  const int apps = static_cast<int>(state.range(0));
  const trace::Recorder rec = synthetic_transfer_trace(apps, 64);
  for (auto _ : state) {
    const trace::AppIndex index(rec);
    DurationNs total = 0;
    for (int a = 0; a < apps; ++a) {
      total += fw::effective_transfer_latency(index, a,
                                              trace::SpanKind::MemcpyHtoD)
                   .value_or(0);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * apps);
}
BENCHMARK(BM_PerAppLatencyIndexed)->Arg(8)->Arg(64);

void BM_HarnessPairRun(benchmark::State& state) {
  // One full {nn, needle} 8-application timing run (the smallest pairing).
  for (auto _ : state) {
    const auto result =
        hq::bench::run_pair(hq::bench::Pair{"nn", "needle"}, 8, 8);
    benchmark::DoNotOptimize(result.makespan);
  }
}
BENCHMARK(BM_HarnessPairRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
