#include "fault/fault.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/table.hpp"

namespace hq::fault {
namespace {

// Domain tags separate the draw streams so, e.g., the stall and slowdown
// decisions for the same op are independent.
constexpr std::uint64_t kDomainCopyStall = 0x01;
constexpr std::uint64_t kDomainCopySlowdown = 0x02;
constexpr std::uint64_t kDomainLaunch = 0x03;
constexpr std::uint64_t kDomainHostAlloc = 0x04;
constexpr std::uint64_t kDomainSdcCopy = 0x05;
constexpr std::uint64_t kDomainSdcKernel = 0x06;
// Sub-stream of the SDC domains used to pick the corruption mask itself
// (independent of the fire/no-fire draw).
constexpr std::uint64_t kSdcMaskStream = 0x8000000000000000ULL;

std::uint64_t sdc_hash(std::uint64_t seed, std::uint64_t domain,
                       std::uint64_t key, std::uint64_t sub) {
  Fnv1a64 hash;
  hash.mix_u64(seed);
  hash.mix_u64(domain);
  hash.mix_u64(key);
  hash.mix_u64(sub);
  return hash.value();
}

double sdc_draw(std::uint64_t seed, std::uint64_t domain, std::uint64_t key,
                std::uint64_t sub) {
  // Top 53 bits -> uniform double in [0, 1) (same mapping as
  // FaultInjector::draw so all fault domains share one distribution).
  return static_cast<double>(sdc_hash(seed, domain, key, sub) >> 11) *
         0x1.0p-53;
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == text.c_str()) return false;
  *out = v;
  return true;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (end == nullptr || *end != '\0' || end == text.c_str()) return false;
  *out = v;
  return true;
}

bool parse_i32(const std::string& text, std::int32_t* out) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == text.c_str()) return false;
  *out = static_cast<std::int32_t>(v);
  return true;
}

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool apply_key(FaultPlan& plan, const std::string& key,
               const std::string& value, std::string* error) {
  double d = 0.0;
  std::uint64_t u = 0;
  std::int32_t i = 0;
  const auto rate = [&](double* field) {
    if (!parse_double(value, &d) || d < 0.0 || d > 1.0) {
      return set_error(error, "fault plan: " + key +
                                  " needs a rate in [0,1], got '" + value + "'");
    }
    *field = d;
    return true;
  };
  const auto factor = [&](double* field) {
    if (!parse_double(value, &d) || d < 1.0) {
      return set_error(error, "fault plan: " + key +
                                  " needs a factor >= 1, got '" + value + "'");
    }
    *field = d;
    return true;
  };
  const auto micros = [&](DurationNs* field) {
    if (!parse_u64(value, &u)) {
      return set_error(error, "fault plan: " + key +
                                  " needs an integer microsecond count, got '" +
                                  value + "'");
    }
    *field = u * kMicrosecond;
    return true;
  };

  if (key == "seed") {
    if (!parse_u64(value, &u)) {
      return set_error(error,
                       "fault plan: seed needs an integer, got '" + value + "'");
    }
    plan.seed = u;
    return true;
  }
  if (key == "copy-stall-rate") return rate(&plan.copy_stall_rate);
  if (key == "copy-stall-us") return micros(&plan.copy_stall_ns);
  if (key == "copy-slow-rate") return rate(&plan.copy_slowdown_rate);
  if (key == "copy-slow-factor") return factor(&plan.copy_slowdown_factor);
  if (key == "launch-fail-rate") return rate(&plan.launch_failure_rate);
  if (key == "alloc-fail-rate") return rate(&plan.host_alloc_failure_rate);
  if (key == "poison-app") {
    if (!parse_i32(value, &i) || i < -1) {
      return set_error(error, "fault plan: poison-app needs an app id >= -1, "
                              "got '" + value + "'");
    }
    plan.poison_app = i;
    return true;
  }
  if (key == "offline-smx") {
    if (!parse_i32(value, &i) || i < 0) {
      return set_error(error, "fault plan: offline-smx needs a count >= 0, "
                              "got '" + value + "'");
    }
    plan.offline_smx = i;
    return true;
  }
  if (key == "throttle-period-us") return micros(&plan.throttle_period);
  if (key == "throttle-duty-us") return micros(&plan.throttle_duration);
  if (key == "throttle-factor") return factor(&plan.throttle_factor);
  if (key == "crash-at-us") return micros(&plan.crash_at);
  if (key == "flap-period-us") return micros(&plan.flap_period);
  if (key == "flap-down-us") return micros(&plan.flap_down);
  if (key == "flap-jitter") return rate(&plan.flap_jitter);
  if (key == "degrade-at-us") return micros(&plan.degrade_at);
  if (key == "degrade-copy-factor") {
    return factor(&plan.degrade_copy_factor);
  }
  if (key == "sdc-copy-rate") return rate(&plan.sdc_copy_rate);
  if (key == "sdc-kernel-rate") return rate(&plan.sdc_kernel_rate);
  if (key == "sdc-at-us") return micros(&plan.sdc_at);
  if (key == "sdc-stuck-at-us") return micros(&plan.sdc_stuck_at);
  return set_error(error, "fault plan: unknown key '" + key + "'");
}

}  // namespace

bool FaultPlan::any_faults() const {
  if (!enabled) return false;
  return copy_stall_rate > 0.0 || copy_slowdown_rate > 0.0 ||
         launch_failure_rate > 0.0 || poison_app >= 0 ||
         host_alloc_failure_rate > 0.0 || offline_smx > 0 ||
         (throttle_period > 0 && throttle_duration > 0 &&
          throttle_factor > 1.0) ||
         any_lifecycle() || any_sdc();
}

bool FaultPlan::any_lifecycle() const {
  if (!enabled) return false;
  return any_down_transitions() ||
         (degrade_at > 0 && degrade_copy_factor > 1.0);
}

bool FaultPlan::any_down_transitions() const {
  if (!enabled) return false;
  return crash_at > 0 || (flap_period > 0 && flap_down > 0);
}

bool FaultPlan::any_sdc() const {
  if (!enabled) return false;
  return sdc_copy_rate > 0.0 || sdc_kernel_rate > 0.0 || sdc_stuck_at > 0;
}

std::optional<FaultPlan> parse_fault_plan(const std::string& text,
                                          std::string* error) {
  FaultPlan plan;
  plan.enabled = true;
  if (text == "zero") return plan;
  if (text == "disabled" || text == "none") {
    // Inert plan (no injector at all) — the per-device fault-plan file uses
    // this for devices that should run fault-free.
    plan.enabled = false;
    return plan;
  }
  std::stringstream stream(text);
  std::string token;
  bool any = false;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    any = true;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      set_error(error,
                "fault plan: expected key=value, got '" + token + "'");
      return std::nullopt;
    }
    if (!apply_key(plan, token.substr(0, eq), token.substr(eq + 1), error)) {
      return std::nullopt;
    }
  }
  if (!any) {
    set_error(error, "fault plan: empty spec (use \"zero\" for an enabled "
                     "zero-rate plan)");
    return std::nullopt;
  }
  return plan;
}

std::string fault_plan_to_string(const FaultPlan& plan) {
  if (!plan.enabled) return "disabled";
  // Doubles in std::to_chars shortest round-trip form (format_double):
  // default ostream precision would truncate to 6 significant digits, so
  // parse(to_string(p)) == p would fail and two distinct plans could
  // serialize identically (colliding in the sweep-journal grid key).
  std::ostringstream out;
  out << "seed=" << plan.seed;
  out << ",copy-stall-rate=" << format_double(plan.copy_stall_rate);
  out << ",copy-stall-us=" << plan.copy_stall_ns / kMicrosecond;
  out << ",copy-slow-rate=" << format_double(plan.copy_slowdown_rate);
  out << ",copy-slow-factor="
      << format_double(plan.copy_slowdown_factor);
  out << ",launch-fail-rate="
      << format_double(plan.launch_failure_rate);
  out << ",alloc-fail-rate="
      << format_double(plan.host_alloc_failure_rate);
  out << ",poison-app=" << plan.poison_app;
  out << ",offline-smx=" << plan.offline_smx;
  out << ",throttle-period-us=" << plan.throttle_period / kMicrosecond;
  out << ",throttle-duty-us=" << plan.throttle_duration / kMicrosecond;
  out << ",throttle-factor=" << format_double(plan.throttle_factor);
  // Lifecycle keys are emitted only when set: plans without lifecycle
  // faults keep their historical rendering byte-for-byte (reports embed
  // this string, and the pinned golden digests hash the report bytes).
  if (plan.crash_at > 0) {
    out << ",crash-at-us=" << plan.crash_at / kMicrosecond;
  }
  if (plan.flap_period > 0) {
    out << ",flap-period-us=" << plan.flap_period / kMicrosecond;
  }
  if (plan.flap_down > 0) {
    out << ",flap-down-us=" << plan.flap_down / kMicrosecond;
  }
  if (plan.flap_jitter > 0.0) {
    out << ",flap-jitter=" << format_double(plan.flap_jitter);
  }
  if (plan.degrade_at > 0) {
    out << ",degrade-at-us=" << plan.degrade_at / kMicrosecond;
  }
  if (plan.degrade_copy_factor > 1.0) {
    out << ",degrade-copy-factor="
        << format_double(plan.degrade_copy_factor);
  }
  // SDC keys follow the same only-when-set rule as the lifecycle keys: the
  // rendering of every pre-SDC plan is unchanged byte-for-byte.
  if (plan.sdc_copy_rate > 0.0) {
    out << ",sdc-copy-rate=" << format_double(plan.sdc_copy_rate);
  }
  if (plan.sdc_kernel_rate > 0.0) {
    out << ",sdc-kernel-rate=" << format_double(plan.sdc_kernel_rate);
  }
  if (plan.sdc_at > 0) {
    out << ",sdc-at-us=" << plan.sdc_at / kMicrosecond;
  }
  if (plan.sdc_stuck_at > 0) {
    out << ",sdc-stuck-at-us=" << plan.sdc_stuck_at / kMicrosecond;
  }
  return out.str();
}

void mix_fault_plan(Fnv1a64& h, const FaultPlan& plan) {
  h.mix_string(fault_plan_to_string(plan));
}

std::uint64_t sdc_corruption_mask(const FaultPlan& plan, TimeNs now,
                                  std::uint64_t job_key, std::uint64_t sub,
                                  gpu::ObservedFault* kind_out) {
  if (!plan.any_sdc()) return 0;
  const auto scrambled = [&]() {
    std::uint64_t mask = sdc_hash(plan.seed, kDomainSdcKernel, job_key,
                                  sub ^ kSdcMaskStream);
    if (mask == 0) mask = 1;  // a corruption must actually change the digest
    return mask;
  };
  // Stuck-at dominates: from sdc_stuck_at on the device lies on every job.
  if (plan.sdc_stuck_at > 0 && now >= plan.sdc_stuck_at) {
    if (kind_out != nullptr) *kind_out = gpu::ObservedFault::SdcKernelCorruption;
    return scrambled();
  }
  if (plan.sdc_copy_rate > 0.0 &&
      sdc_draw(plan.seed, kDomainSdcCopy, job_key, sub) < plan.sdc_copy_rate) {
    if (kind_out != nullptr) *kind_out = gpu::ObservedFault::SdcCopyCorruption;
    const std::uint64_t bit =
        sdc_hash(plan.seed, kDomainSdcCopy, job_key, sub ^ kSdcMaskStream) % 64;
    return 1ULL << bit;
  }
  if (plan.sdc_kernel_rate > 0.0) {
    // Aging ramp: effective rate is 0 before sdc_at, reaches the full rate
    // at 2 * sdc_at, and is the full rate immediately when sdc_at == 0.
    double effective = plan.sdc_kernel_rate;
    if (plan.sdc_at > 0) {
      if (now < plan.sdc_at) return 0;
      const double ramp = static_cast<double>(now - plan.sdc_at) /
                          static_cast<double>(plan.sdc_at);
      effective *= ramp < 1.0 ? ramp : 1.0;
    }
    if (sdc_draw(plan.seed, kDomainSdcKernel, job_key, sub) < effective) {
      if (kind_out != nullptr) {
        *kind_out = gpu::ObservedFault::SdcKernelCorruption;
      }
      return scrambled();
    }
  }
  return 0;
}

std::uint64_t FaultStats::count_for(gpu::ObservedFault kind) const {
  switch (kind) {
    case gpu::ObservedFault::CopyStall: return copy_stalls;
    case gpu::ObservedFault::CopySlowdown: return copy_slowdowns;
    case gpu::ObservedFault::CopyThrottle: return throttled_copies;
    case gpu::ObservedFault::LaunchFailure: return launch_failures;
    case gpu::ObservedFault::LaunchAbort: return launch_aborts;
    case gpu::ObservedFault::HostAllocFailure: return host_alloc_failures;
    case gpu::ObservedFault::SdcCopyCorruption: return sdc_copy_corruptions;
    case gpu::ObservedFault::SdcKernelCorruption:
      return sdc_kernel_corruptions;
  }
  return 0;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(plan) {
  HQ_CHECK_MSG(plan_.enabled, "FaultInjector needs an enabled plan");
  HQ_CHECK(plan_.copy_slowdown_factor >= 1.0);
  HQ_CHECK(plan_.throttle_factor >= 1.0);
  HQ_CHECK(plan_.degrade_copy_factor >= 1.0);
  HQ_CHECK(plan_.flap_jitter >= 0.0 && plan_.flap_jitter <= 1.0);
}

gpu::DeviceSpec FaultInjector::degraded(gpu::DeviceSpec spec) const {
  if (plan_.offline_smx > 0) {
    spec.num_smx = std::max(1, spec.num_smx - plan_.offline_smx);
  }
  return spec;
}

double FaultInjector::draw(std::uint64_t domain, std::uint64_t key,
                           std::uint64_t sub) const {
  Fnv1a64 hash;
  hash.mix_u64(plan_.seed);
  hash.mix_u64(domain);
  hash.mix_u64(key);
  hash.mix_u64(sub);
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(hash.value() >> 11) * 0x1.0p-53;
}

void FaultInjector::emit(TimeNs now, gpu::ObservedFault kind,
                         std::uint64_t key, DurationNs penalty) {
  if (observer_ != nullptr) {
    observer_->on_fault_injected(now, kind, key, penalty);
  }
}

DurationNs FaultInjector::copy_service_penalty(TimeNs now,
                                               gpu::CopyDirection dir,
                                               gpu::OpId op, Bytes bytes,
                                               DurationNs base) {
  (void)dir;
  (void)bytes;
  DurationNs penalty = 0;
  if (plan_.copy_stall_rate > 0.0 &&
      draw(kDomainCopyStall, op) < plan_.copy_stall_rate) {
    penalty += plan_.copy_stall_ns;
    ++stats_.copy_stalls;
    stats_.copy_stall_total_ns += plan_.copy_stall_ns;
    emit(now, gpu::ObservedFault::CopyStall, op, plan_.copy_stall_ns);
  }
  if (plan_.copy_slowdown_rate > 0.0 &&
      draw(kDomainCopySlowdown, op) < plan_.copy_slowdown_rate) {
    const DurationNs extra = static_cast<DurationNs>(
        std::ceil(static_cast<double>(base) * (plan_.copy_slowdown_factor - 1.0)));
    penalty += extra;
    ++stats_.copy_slowdowns;
    emit(now, gpu::ObservedFault::CopySlowdown, op, extra);
  }
  if (plan_.throttle_period > 0 && plan_.throttle_duration > 0 &&
      plan_.throttle_factor > 1.0 &&
      now % plan_.throttle_period < plan_.throttle_duration) {
    const DurationNs extra = static_cast<DurationNs>(
        std::ceil(static_cast<double>(base) * (plan_.throttle_factor - 1.0)));
    penalty += extra;
    ++stats_.throttled_copies;
    emit(now, gpu::ObservedFault::CopyThrottle, op, extra);
  }
  // Sustained degradation (lifecycle fault): a permanent copy-bandwidth
  // derate from degrade_at on. Observed through the throttle channel so the
  // checker's fault cross-count needs no new event kind.
  if (plan_.degrade_at > 0 && plan_.degrade_copy_factor > 1.0 &&
      now >= plan_.degrade_at) {
    const DurationNs extra = static_cast<DurationNs>(std::ceil(
        static_cast<double>(base) * (plan_.degrade_copy_factor - 1.0)));
    penalty += extra;
    ++stats_.throttled_copies;
    emit(now, gpu::ObservedFault::CopyThrottle, op, extra);
  }
  return penalty;
}

int FaultInjector::launch_failures_for(std::int32_t app_id,
                                       std::uint64_t op_key,
                                       int max_retries) const {
  if (plan_.poison_app >= 0 && app_id == plan_.poison_app) {
    return max_retries + 1;  // every attempt fails -> launch abort
  }
  if (plan_.launch_failure_rate <= 0.0) return 0;
  int failures = 0;
  while (failures < max_retries &&
         draw(kDomainLaunch, op_key, static_cast<std::uint64_t>(failures)) <
             plan_.launch_failure_rate) {
    ++failures;
  }
  return failures;
}

void FaultInjector::note_launch_failure(TimeNs now, std::uint64_t op_key,
                                        std::int32_t app_id) {
  ++stats_.launch_failures;
  emit(now, gpu::ObservedFault::LaunchFailure, op_key, 0);
  if (launch_fault_hook_) launch_fault_hook_(now, app_id, false);
}

void FaultInjector::note_launch_abort(TimeNs now, std::uint64_t op_key,
                                      std::int32_t app_id) {
  ++stats_.launch_aborts;
  emit(now, gpu::ObservedFault::LaunchAbort, op_key, 0);
  if (launch_fault_hook_) launch_fault_hook_(now, app_id, true);
}

bool FaultInjector::host_alloc_fails(TimeNs now, std::uint64_t alloc_key) {
  if (plan_.host_alloc_failure_rate <= 0.0) return false;
  if (draw(kDomainHostAlloc, alloc_key) >= plan_.host_alloc_failure_rate) {
    return false;
  }
  ++stats_.host_alloc_failures;
  emit(now, gpu::ObservedFault::HostAllocFailure, alloc_key, 0);
  return true;
}

}  // namespace hq::fault
