// Property-based sweep: for any launch configuration, the block scheduler
// must execute a kernel in exactly ceil(grid_blocks / device_residency)
// waves, where device_residency is the analytic minimum over the four
// per-SMX constraints (block slots, threads, registers, shared memory)
// multiplied by the SMX count — and the kernel's makespan must equal
// waves * block_duration when it runs alone.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "gpusim/block_scheduler.hpp"
#include "sim/simulator.hpp"

namespace hq::gpu {
namespace {

struct LaunchCase {
  std::uint32_t grid_blocks;
  std::uint32_t threads_per_block;
  std::uint32_t regs_per_thread;
  Bytes smem_per_block;
};

// Names each instance by its launch shape. Without it gtest prints the raw
// bytes of the struct, and its padding bytes differ from run to run.
void PrintTo(const LaunchCase& c, std::ostream* os) {
  *os << "grid=" << c.grid_blocks << " tpb=" << c.threads_per_block
      << " regs=" << c.regs_per_thread << " smem=" << c.smem_per_block;
}

int analytic_residency(const DeviceSpec& spec, const LaunchCase& c) {
  int per_smx = spec.max_blocks_per_smx;
  per_smx = std::min(per_smx, spec.max_threads_per_smx /
                                  static_cast<int>(c.threads_per_block));
  per_smx = std::min(per_smx,
                     static_cast<int>(spec.registers_per_smx /
                                      (c.regs_per_thread * c.threads_per_block)));
  if (c.smem_per_block > 0) {
    per_smx = std::min(per_smx, static_cast<int>(spec.shared_mem_per_smx /
                                                 c.smem_per_block));
  }
  return per_smx * spec.num_smx;
}

class WaveProperty : public ::testing::TestWithParam<LaunchCase> {};

TEST_P(WaveProperty, WavesMatchAnalyticResidency) {
  const LaunchCase c = GetParam();
  const DeviceSpec spec = DeviceSpec::tesla_k20();
  const int residency = analytic_residency(spec, c);
  ASSERT_GT(residency, 0);
  const int expected_waves =
      static_cast<int>((c.grid_blocks + residency - 1) / residency);

  sim::Simulator sim;
  int waves = 0;
  TimeNs complete = 0;
  BlockScheduler scheduler(
      sim, spec, [] {},
      [&](const KernelExec& e) {
        waves = e.waves;
        complete = e.complete_time;
      });
  auto exec = std::make_unique<KernelExec>();
  exec->launch = KernelLaunch{"k",
                              Dim3{c.grid_blocks, 1, 1},
                              Dim3{c.threads_per_block, 1, 1},
                              c.regs_per_thread,
                              c.smem_per_block,
                              10 * kMicrosecond,
                              0.0,
                              nullptr};
  scheduler.dispatch(std::move(exec));
  sim.run();

  EXPECT_EQ(waves, expected_waves)
      << "grid=" << c.grid_blocks << " tpb=" << c.threads_per_block
      << " regs=" << c.regs_per_thread << " smem=" << c.smem_per_block
      << " residency=" << residency;
  EXPECT_EQ(complete, static_cast<TimeNs>(expected_waves) * 10 * kMicrosecond);
  EXPECT_EQ(scheduler.resident_blocks(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    ResidencySweep, WaveProperty,
    ::testing::Values(
        // Block-slot limited (16/SMX -> 208 device-wide).
        LaunchCase{1, 32, 16, 0}, LaunchCase{208, 32, 16, 0},
        LaunchCase{209, 32, 16, 0}, LaunchCase{1000, 64, 16, 0},
        // Thread limited (2048/SMX).
        LaunchCase{104, 256, 16, 0}, LaunchCase{105, 256, 16, 0},
        LaunchCase{26, 1024, 16, 0}, LaunchCase{27, 1024, 16, 0},
        LaunchCase{52, 512, 16, 0},
        // Register limited: 128 regs x 256 threads = 32768 -> 2/SMX.
        LaunchCase{26, 256, 128, 0}, LaunchCase{27, 256, 128, 0},
        LaunchCase{100, 128, 64, 0},
        // Shared-memory limited: 16 KiB -> 3/SMX -> 39 device-wide.
        LaunchCase{39, 64, 16, 16 * 1024}, LaunchCase{40, 64, 16, 16 * 1024},
        LaunchCase{120, 32, 16, 24 * 1024},
        // The paper's Table III kernels.
        LaunchCase{1, 512, 14, 0},          // Fan1
        LaunchCase{1024, 256, 20, 0},       // Fan2
        LaunchCase{16, 32, 24, 8712},       // needle_cuda_shared_1 (max call)
        LaunchCase{1024, 256, 24, 2048},    // srad_cuda_*
        LaunchCase{168, 256, 16, 0}));      // euclid

}  // namespace
}  // namespace hq::gpu
