#include "serve/service.hpp"

#include "common/check.hpp"

namespace hq::serve {

std::span<const codec::Field<ClassSpec>> codec_fields(const ClassSpec&) {
  // A class renders its item as type and params (the resolved-params record
  // that tells two sizes of one application apart); the factory is built
  // from them, so it has no row of its own.
  constexpr std::size_t kRows = codec::member_count<ClassSpec>() - 1 +
                                codec::member_count<fw::WorkloadItem>() - 1;
  static constexpr auto kFields = codec::table<ClassSpec, kRows>({
      codec::row<&ClassSpec::item, &fw::WorkloadItem::type_name>("type"),
      codec::row<&ClassSpec::item, &fw::WorkloadItem::params>("params"),
      codec::row<&ClassSpec::priority>("priority"),
  });
  return kFields;
}

std::span<const codec::Field<Arrival>> codec_fields(const Arrival&) {
  static constexpr auto kFields = codec::table<Arrival>({
      codec::row<&Arrival::at>("at"),
      codec::row<&Arrival::klass>("class"),
  });
  return kFields;
}

std::span<const codec::Field<ServiceConfig>> codec_fields(
    const ServiceConfig&) {
  using S = ServiceConfig;
  static constexpr auto kFields = codec::table<S>({
      codec::row<&S::device>("device"),
      codec::row<&S::num_streams>("num-streams"),
      codec::row<&S::memory_sync>("memory-sync"),
      codec::row<&S::functional>("functional"),
      codec::row<&S::window>("window"),
      codec::row<&S::mean_interarrival>("mean-interarrival"),
      codec::row<&S::classes>("classes"),
      codec::row<&S::seed>("seed"),
      codec::row<&S::arrivals>("arrivals"),
      codec::row<&S::queue_cap>("queue-cap"),
      codec::row<&S::max_inflight>("max-inflight"),
      codec::enum_row<&S::shed_policy, shed_policy_name, 3>("shed-policy"),
      codec::row<&S::deadline>("deadline"),
      codec::row<&S::expire_queued>("expire-queued"),
      codec::row<&S::controller>("controller"),
      codec::row<&S::breaker_enabled>("breaker-enabled"),
      codec::row<&S::breaker>("breaker"),
      codec::row<&S::fault_plan>("fault-plan"),
      codec::row<&S::retry>("retry"),
      codec::row<&S::check_invariants>("check-invariants"),
      codec::row<&S::collect_metrics>("collect-metrics"),
  });
  return kFields;
}

void ServiceConfig::validate() const {
  HQ_CHECK_MSG(!classes.empty(),
               "serve config: classes must not be empty "
               "(need at least one application class)");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    HQ_CHECK_MSG(classes[i].item.factory != nullptr,
                 "serve config: class " << i << " ('"
                     << classes[i].item.type_name << "') has a null factory");
  }
  HQ_CHECK_MSG(window > 0, "serve config: window must be positive");
  HQ_CHECK_MSG(mean_interarrival > 0,
               "serve config: mean_interarrival must be positive");
  HQ_CHECK_MSG(num_streams >= 1,
               "serve config: num_streams must be >= 1, got " << num_streams);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    HQ_CHECK_MSG(arrivals[i].klass < classes.size(),
                 "serve config: arrival " << i << " names class "
                     << arrivals[i].klass << " but only " << classes.size()
                     << " classes exist");
    if (i > 0) {
      HQ_CHECK_MSG(arrivals[i - 1].at <= arrivals[i].at,
                   "serve config: arrival times must not decrease (arrival "
                       << i << " at " << arrivals[i].at << " follows "
                       << arrivals[i - 1].at << ")");
    }
  }
  HQ_CHECK_MSG(expire_queued ? deadline > 0 : true,
               "serve config: expire_queued needs a positive deadline");
}

}  // namespace hq::serve
