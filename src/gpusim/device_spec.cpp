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

void mix_device_spec(Fnv1a64& h, const DeviceSpec& spec) {
  h.mix_string(spec.name);
  h.mix_i64(spec.num_smx);
  h.mix_i64(spec.max_blocks_per_smx);
  h.mix_i64(spec.max_threads_per_smx);
  h.mix_i64(spec.max_threads_per_block);
  h.mix_u64(spec.registers_per_smx);
  h.mix_u64(spec.shared_mem_per_smx);
  h.mix_u64(spec.global_memory);
  h.mix_i64(spec.num_work_queues);
  h.mix_u64(spec.kernel_dispatch_latency);
  h.mix_double(spec.htod_bytes_per_sec);
  h.mix_double(spec.dtoh_bytes_per_sec);
  h.mix_u64(spec.copy_overhead);
  h.mix_i64(spec.num_copy_engines);
  h.mix_double(spec.idle_power);
  h.mix_double(spec.active_base_power);
  h.mix_double(spec.max_dynamic_power);
  h.mix_double(spec.power_exponent);
  h.mix_double(spec.copy_engine_power);
}

}  // namespace hq::gpu
