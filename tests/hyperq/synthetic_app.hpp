// A minimal configurable Kernel implementation for framework tests: a few
// transfers in, a few identical kernels, one transfer out. Keeps harness
// tests independent of the Rodinia ports.
#pragma once

#include <memory>
#include <string>

#include "common/check.hpp"
#include "hyperq/harness.hpp"
#include "hyperq/kernel.hpp"

namespace hq::fw::testing {

class SyntheticApp final : public Kernel {
 public:
  struct Spec {
    std::string name = "synthetic";
    Bytes htod_bytes = 256 * kKiB;
    Bytes dtoh_bytes = 128 * kKiB;
    int htod_pieces = 2;  ///< HtoD split into this many transfers
    int num_kernels = 4;
    std::uint32_t blocks = 16;
    std::uint32_t threads_per_block = 256;
    DurationNs block_duration = 20 * kMicrosecond;
  };

  explicit SyntheticApp(Spec spec) : spec_(std::move(spec)) {}

  void allocateHostMemory(Context& ctx) override {
    // Same bounded-retry idiom as RodiniaApp: pinned allocation can fail
    // transiently under an alloc-fault plan; only a sticking failure
    // throws (and quarantines the job in the serving layers).
    host_in_ = malloc_host_retry(ctx, spec_.htod_bytes);
    host_out_ = malloc_host_retry(ctx, spec_.dtoh_bytes);
  }
  void allocateDeviceMemory(Context& ctx) override {
    dev_in_ = ctx.runtime->malloc_device(spec_.htod_bytes).value();
    dev_out_ = ctx.runtime->malloc_device(spec_.dtoh_bytes).value();
  }
  void initializeHostMemory(Context& ctx) override {
    auto view = ctx.runtime->host_bytes(host_in_);
    std::fill(view.begin(), view.end(), std::byte{0x5a});
  }

  sim::Task transferMemory(Context& ctx, Direction direction) override {
    if (direction == Direction::HostToDevice) {
      const Bytes piece = spec_.htod_bytes / spec_.htod_pieces;
      for (int i = 0; i < spec_.htod_pieces; ++i) {
        const Bytes offset = piece * i;
        const Bytes len =
            i + 1 == spec_.htod_pieces ? spec_.htod_bytes - offset : piece;
        gpu::OpTag tag{ctx.app_id, "in"};
        auto op = ctx.runtime->memcpy_htod_async(ctx.stream, dev_in_, host_in_,
                                                 len, std::move(tag), offset);
        co_await op;
      }
    } else {
      gpu::OpTag tag{ctx.app_id, "out"};
      auto op = ctx.runtime->memcpy_dtoh_async(ctx.stream, host_out_, dev_out_,
                                               spec_.dtoh_bytes, std::move(tag));
      co_await op;
    }
    co_await ctx.runtime->stream_synchronize(ctx.stream);
  }

  sim::Task executeKernel(Context& ctx) override {
    for (int i = 0; i < spec_.num_kernels; ++i) {
      rt::LaunchConfig cfg;
      cfg.name = spec_.name + "_k";
      cfg.grid = {spec_.blocks, 1, 1};
      cfg.block = {spec_.threads_per_block, 1, 1};
      cfg.block_duration = spec_.block_duration;
      cfg.body = [this] { ++kernels_run_; };
      gpu::OpTag tag{ctx.app_id, cfg.name};
      auto op = ctx.runtime->launch_kernel(ctx.stream, std::move(cfg),
                                           std::move(tag));
      co_await op;
    }
    co_await ctx.runtime->stream_synchronize(ctx.stream);
  }

  // Free tracked buffers only: under an alloc-fault plan a .value() above
  // can throw mid-allocation, and the serving layers still call the free
  // hooks on the quarantined job.
  void freeHostMemory(Context& ctx) override {
    if (!host_in_.null()) ctx.runtime->free_host(host_in_);
    if (!host_out_.null()) ctx.runtime->free_host(host_out_);
  }
  void freeDeviceMemory(Context& ctx) override {
    if (!dev_in_.null()) ctx.runtime->free_device(dev_in_);
    if (!dev_out_.null()) ctx.runtime->free_device(dev_out_);
  }

  const std::string& name() const override { return spec_.name; }
  Bytes htod_bytes() const override { return spec_.htod_bytes; }
  Bytes dtoh_bytes() const override { return spec_.dtoh_bytes; }
  bool verify(Context&) const override { return kernels_run_ == spec_.num_kernels; }

  int kernels_run() const { return kernels_run_; }

 private:
  rt::HostPtr malloc_host_retry(Context& ctx, Bytes bytes) {
    constexpr int kMaxAllocAttempts = 8;
    auto result = ctx.runtime->malloc_host(bytes);
    for (int attempt = 1; !result.ok() && attempt < kMaxAllocAttempts;
         ++attempt) {
      result = ctx.runtime->malloc_host(bytes);
    }
    if (!result.ok()) {
      // No source location: the serve goldens hash this quarantine reason.
      throw Error(spec_.name + ": host allocation of " + std::to_string(bytes) +
                  " bytes failed after " + std::to_string(kMaxAllocAttempts) +
                  " attempts");
    }
    return result.value();
  }

  Spec spec_;
  rt::HostPtr host_in_;
  rt::HostPtr host_out_;
  rt::DevicePtr dev_in_;
  rt::DevicePtr dev_out_;
  int kernels_run_ = 0;
};

/// Workload of `count` identical synthetic apps.
inline std::vector<WorkloadItem> synthetic_workload(int count,
                                                    SyntheticApp::Spec spec) {
  std::vector<WorkloadItem> items;
  for (int i = 0; i < count; ++i) {
    items.push_back(WorkloadItem{
        spec.name, [spec] { return std::make_unique<SyntheticApp>(spec); }});
  }
  return items;
}

/// Forwards every call to `app` and counts its initializeHostMemory calls.
class InitCounter final : public Kernel {
 public:
  InitCounter(std::unique_ptr<Kernel> app, int* calls)
      : app_(std::move(app)), calls_(calls) {}

  void allocateHostMemory(Context& c) override { app_->allocateHostMemory(c); }
  void allocateDeviceMemory(Context& c) override {
    app_->allocateDeviceMemory(c);
  }
  void initializeHostMemory(Context& c) override {
    ++*calls_;
    app_->initializeHostMemory(c);
  }
  sim::Task transferMemory(Context& c, Direction d) override {
    return app_->transferMemory(c, d);
  }
  sim::Task executeKernel(Context& c) override { return app_->executeKernel(c); }
  void freeHostMemory(Context& c) override { app_->freeHostMemory(c); }
  void freeDeviceMemory(Context& c) override { app_->freeDeviceMemory(c); }
  const std::string& name() const override { return app_->name(); }
  Bytes htod_bytes() const override { return app_->htod_bytes(); }
  Bytes dtoh_bytes() const override { return app_->dtoh_bytes(); }
  bool verify(Context& c) const override { return app_->verify(c); }

 private:
  std::unique_ptr<Kernel> app_;
  int* calls_;
};

/// A workload item of synthetic apps whose host initialisations count
/// into `*calls`.
inline WorkloadItem init_counting_item(int* calls) {
  return WorkloadItem{"synthetic", [calls] {
                        return std::make_unique<InitCounter>(
                            std::make_unique<SyntheticApp>(SyntheticApp::Spec{}),
                            calls);
                      }};
}

}  // namespace hq::fw::testing
