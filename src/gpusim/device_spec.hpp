// Hardware description of the simulated GPU.
//
// The default preset models the paper's testbed, a Tesla K20 (Kepler GK110,
// compute capability 3.5): 13 SMX units, 16 resident blocks / 2048 resident
// threads / 64K registers / 48 KiB shared memory per SMX, Hyper-Q's 32
// hardware work queues, and one copy engine per transfer direction. The
// theoretical maximum of 13 x 16 = 208 resident thread blocks is the limit
// the paper's Figure 5 oversubscription discussion refers to.
#pragma once

#include <cstdint>
#include <string>

#include "common/hash.hpp"
#include "common/units.hpp"

namespace hq::gpu {

struct DeviceSpec {
  std::string name = "Simulated Tesla K20";

  // --- compute resources -------------------------------------------------
  int num_smx = 13;
  int max_blocks_per_smx = 16;
  int max_threads_per_smx = 2048;
  int max_threads_per_block = 1024;
  std::uint32_t registers_per_smx = 65536;
  Bytes shared_mem_per_smx = 48 * kKiB;
  Bytes global_memory = 5 * kGiB;

  // --- front end ---------------------------------------------------------
  /// Independent hardware work queues (Hyper-Q). Set to 1 for the
  /// pre-Kepler/Fermi false-serialization ablation.
  int num_work_queues = 32;
  /// Latency between a queue head becoming ready and its blocks reaching the
  /// block scheduler (grid management unit latency). Also the minimum gap
  /// between back-to-back kernels of one stream.
  DurationNs kernel_dispatch_latency = 3 * kMicrosecond;

  // --- copy engines ------------------------------------------------------
  /// Sustained PCIe bandwidth per direction (bytes per second).
  double htod_bytes_per_sec = 6.1e9;
  double dtoh_bytes_per_sec = 6.5e9;
  /// Fixed per-transaction cost; makes small transfers latency-bound (the
  /// "linear above 8 KB" behaviour the paper cites from Boyer's
  /// measurements).
  DurationNs copy_overhead = 8 * kMicrosecond;
  /// Copy engines: 2 = one per direction (Tesla K20, the paper's testbed);
  /// 1 = a single shared engine for both directions (GeForce-class parts),
  /// which serializes HtoD against DtoH — an ablation for the paper's
  /// "overlap HtoD transfer with DtoH transfers" observation.
  int num_copy_engines = 2;

  // --- power model ---------------------------------------------------------
  /// Board power with no work resident.
  Watts idle_power = 25.0;
  /// Additional power whenever any kernel or copy is in flight (clocks out
  /// of low-power state).
  Watts active_base_power = 12.0;
  /// Additional dynamic power at full thread occupancy.
  Watts max_dynamic_power = 110.0;
  /// Concavity of dynamic power in occupancy: P_dyn = max_dynamic_power *
  /// occupancy^power_exponent. An exponent < 1 makes power nearly flat in
  /// the level of concurrency — the paper's observation #4.
  double power_exponent = 0.5;
  /// Power drawn by each busy copy engine.
  Watts copy_engine_power = 6.0;

  /// Device-wide resident thread-block ceiling (208 for the K20).
  int max_resident_blocks() const { return num_smx * max_blocks_per_smx; }
  int max_resident_threads() const { return num_smx * max_threads_per_smx; }

  /// The paper's testbed.
  static DeviceSpec tesla_k20();
  /// Same compute resources but a single hardware work queue, modelling the
  /// Fermi-generation false-serialization behaviour Hyper-Q fixed.
  static DeviceSpec fermi_single_queue();
  /// K20 compute resources with a single copy engine shared by both
  /// transfer directions (GeForce-class DMA configuration).
  static DeviceSpec single_copy_engine();
};

/// Mixes every result-affecting field into a grid key, so no sweep's key
/// can silently forget a hardware knob.
void mix_device_spec(Fnv1a64& h, const DeviceSpec& spec);

}  // namespace hq::gpu
