#include "gpusim/device_spec.hpp"

#include <sstream>

#include "gpusim/types.hpp"

namespace hq::gpu {

std::string to_string(const Dim3& d) {
  std::ostringstream os;
  os << "(" << d.x << ", " << d.y << ", " << d.z << ")";
  return os.str();
}

DeviceSpec DeviceSpec::tesla_k20() { return DeviceSpec{}; }

DeviceSpec DeviceSpec::fermi_single_queue() {
  DeviceSpec spec;
  spec.name = "Simulated Fermi-mode (single work queue)";
  spec.num_work_queues = 1;
  return spec;
}

DeviceSpec DeviceSpec::single_copy_engine() {
  DeviceSpec spec;
  spec.name = "Simulated single-copy-engine mode";
  spec.num_copy_engines = 1;
  return spec;
}

std::span<const codec::Field<DeviceSpec>> codec_fields(const DeviceSpec&) {
  using S = DeviceSpec;
  static constexpr auto kFields = codec::table<S>({
      codec::row<&S::name>("name"),
      codec::row<&S::num_smx>("num-smx"),
      codec::row<&S::max_blocks_per_smx>("max-blocks-per-smx"),
      codec::row<&S::max_threads_per_smx>("max-threads-per-smx"),
      codec::row<&S::max_threads_per_block>("max-threads-per-block"),
      codec::row<&S::registers_per_smx>("registers-per-smx"),
      codec::row<&S::shared_mem_per_smx>("shared-mem-per-smx"),
      codec::row<&S::global_memory>("global-memory"),
      codec::row<&S::num_work_queues>("num-work-queues"),
      codec::row<&S::kernel_dispatch_latency>("kernel-dispatch-latency"),
      codec::row<&S::htod_bytes_per_sec>("htod-bytes-per-sec"),
      codec::row<&S::dtoh_bytes_per_sec>("dtoh-bytes-per-sec"),
      codec::row<&S::copy_overhead>("copy-overhead"),
      codec::row<&S::num_copy_engines>("num-copy-engines"),
      codec::row<&S::idle_power>("idle-power"),
      codec::row<&S::active_base_power>("active-base-power"),
      codec::row<&S::max_dynamic_power>("max-dynamic-power"),
      codec::row<&S::power_exponent>("power-exponent"),
      codec::row<&S::copy_engine_power>("copy-engine-power"),
  });
  return kFields;
}

}  // namespace hq::gpu
