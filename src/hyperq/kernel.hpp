// The framework's abstract Kernel base class (paper Table II).
//
// "We define an abstract Kernel base class from which we can derive specific
// implementations for particular applications. The base class enforces a
// particular interface which allows an application, such as our test
// harness, to access methods on a specific instance of a Kernel object
// without binding to the derived class."
//
// The virtual method set is exactly the paper's Table II:
//   allocateHostMemory    — encapsulates cudaMallocHost calls
//   allocateDeviceMemory  — encapsulates cudaMalloc calls
//   initializeHostMemory  — subroutine(s) for loading/initializing host data
//   transferMemory        — encapsulates cudaMemcpyAsync calls
//   executeKernel         — grid/block setup + kernel function execution
//   freeHostMemory        — encapsulates cudaFreeHost calls
//   freeDeviceMemory      — encapsulates cudaFree calls
#pragma once

#include <string>

#include "cudart/runtime.hpp"
#include "sim/task.hpp"

namespace hq::fw {

/// Execution context handed to a Kernel instance by the harness. All members
/// are trivially destructible so the context can be passed freely into
/// coroutines (see sim/task.hpp).
struct Context {
  sim::Simulator* sim = nullptr;
  rt::Runtime* runtime = nullptr;
  /// Stream assigned for the execution phase (acquired from StreamManager
  /// when the application's child thread starts).
  rt::Stream stream;
  /// Application instance id for trace attribution and metrics.
  int app_id = -1;
  /// Run the real algorithm (byte movement + kernel math). Off for
  /// timing-only studies.
  bool functional = true;
  /// When non-zero, each logical transfer is split into chunks of this many
  /// bytes (the Pai et al. "chunking" ablation). 0 = one transaction per
  /// buffer.
  Bytes transfer_chunk_bytes = 0;
  /// Rodinia's reference implementations use blocking cudaMemcpy: the host
  /// thread waits for each transfer before issuing the next. This is what
  /// lets concurrent applications' transfers interleave in the copy queue
  /// (paper Figure 1). false = cudaMemcpyAsync-style burst submission.
  bool blocking_transfers = true;
};

enum class Direction { HostToDevice, DeviceToHost };

/// Abstract application kernel (paper Table II).
class Kernel {
 public:
  virtual ~Kernel() = default;

  // --- Table II interface --------------------------------------------------
  virtual void allocateHostMemory(Context& ctx) = 0;
  virtual void allocateDeviceMemory(Context& ctx) = 0;
  virtual void initializeHostMemory(Context& ctx) = 0;
  /// Submits the application's transfers for one direction and waits for
  /// them to complete (the Rodinia ports use blocking transfers at stage
  /// boundaries).
  virtual sim::Task transferMemory(Context& ctx, Direction direction) = 0;
  /// Submits every kernel launch of the application's execution pattern and
  /// waits for completion.
  virtual sim::Task executeKernel(Context& ctx) = 0;
  virtual void freeHostMemory(Context& ctx) = 0;
  virtual void freeDeviceMemory(Context& ctx) = 0;

  // --- introspection --------------------------------------------------------
  /// Benchmark name (Table I), e.g. "gaussian".
  virtual const std::string& name() const = 0;
  /// Total bytes moved host-to-device / device-to-host per run.
  virtual Bytes htod_bytes() const = 0;
  virtual Bytes dtoh_bytes() const = 0;
  /// Functional self-check; meaningful only after a functional run.
  virtual bool verify(Context& ctx) const = 0;
  /// Stable 64-bit digest of the application's host-visible outputs,
  /// evaluated after DtoH and before the frees. Used by the hqfuzz
  /// metamorphic oracle "outputs are byte-identical across scheduling
  /// modes". Returns 0 when the application does not implement it.
  virtual std::uint64_t output_digest(Context& /*ctx*/) const { return 0; }
};

}  // namespace hq::fw
