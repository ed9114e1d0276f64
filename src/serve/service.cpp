#include "serve/service.hpp"

#include "common/check.hpp"

namespace hq::serve {

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
