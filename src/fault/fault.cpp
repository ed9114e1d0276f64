#include "fault/fault.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/hash.hpp"

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

std::span<const codec::Field<FaultPlan>> codec_fields(const FaultPlan&) {
  // Lifecycle and SDC keys render only when set, so plans without them keep
  // the bytes they had before those keys existed (reports embed this text).
  constexpr codec::Spec kRate{.min = 0, .max = 1, .what = "a rate in [0,1]"};
  constexpr codec::Spec kFactor{.min = 1, .what = "a factor >= 1"};
  constexpr codec::Spec kMicros{.kind = codec::Kind::Micros};
  constexpr auto set = [](codec::Spec spec) {
    spec.when_set = true;
    return spec;
  };

  using P = FaultPlan;
  static constexpr auto kFields = codec::table<P>({
      codec::row<&P::enabled>("disabled", {.kind = codec::Kind::Gate}),
      codec::row<&P::seed>("seed"),
      codec::row<&P::copy_stall_rate>("copy-stall-rate", kRate),
      codec::row<&P::copy_stall_ns>("copy-stall-us", kMicros),
      codec::row<&P::copy_slowdown_rate>("copy-slow-rate", kRate),
      codec::row<&P::copy_slowdown_factor>("copy-slow-factor", kFactor),
      codec::row<&P::launch_failure_rate>("launch-fail-rate", kRate),
      codec::row<&P::host_alloc_failure_rate>("alloc-fail-rate", kRate),
      codec::row<&P::poison_app>("poison-app",
                                 {.min = -1.0, .what = "an app id >= -1"}),
      codec::row<&P::offline_smx>("offline-smx",
                                  {.min = 0.0, .what = "a count >= 0"}),
      codec::row<&P::throttle_period>("throttle-period-us", kMicros),
      codec::row<&P::throttle_duration>("throttle-duty-us", kMicros),
      codec::row<&P::throttle_factor>("throttle-factor", kFactor),
      codec::row<&P::crash_at>("crash-at-us", set(kMicros)),
      codec::row<&P::flap_period>("flap-period-us", set(kMicros)),
      codec::row<&P::flap_down>("flap-down-us", set(kMicros)),
      codec::row<&P::flap_jitter>("flap-jitter", set(kRate)),
      codec::row<&P::degrade_at>("degrade-at-us", set(kMicros)),
      codec::row<&P::degrade_copy_factor>("degrade-copy-factor", set(kFactor)),
      codec::row<&P::sdc_copy_rate>("sdc-copy-rate", set(kRate)),
      codec::row<&P::sdc_kernel_rate>("sdc-kernel-rate", set(kRate)),
      codec::row<&P::sdc_at>("sdc-at-us", set(kMicros)),
      codec::row<&P::sdc_stuck_at>("sdc-stuck-at-us", set(kMicros)),
  });
  return kFields;
}

std::optional<FaultPlan> parse_fault_plan(const std::string& text,
                                          std::string* error) {
  if (text.find_first_not_of(',') == std::string::npos) {
    if (error != nullptr) {
      *error = "fault plan: empty spec (use \"zero\" for an enabled "
               "zero-rate plan)";
    }
    return std::nullopt;
  }
  // "zero" is the enabled all-default plan (the codec's empty text); "none"
  // is the other name of "disabled".
  FaultPlan plan;
  std::string why;
  if (!codec::parse(text == "zero" ? "" : text == "none" ? "disabled" : text,
                    &plan, &why)) {
    if (error != nullptr) *error = "fault plan: " + why;
    return std::nullopt;
  }
  return plan;
}

std::string fault_plan_to_string(const FaultPlan& plan) {
  return codec::to_text(plan);
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
  std::string error;
  HQ_CHECK_MSG(codec::check(plan_, &error), "fault plan: " << error);
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
