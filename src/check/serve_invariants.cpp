#include "check/serve_invariants.hpp"

#include <map>
#include <set>
#include <sstream>

namespace hq::check {

std::vector<std::string> verify_serve_accounting(const ServeAccounting& acc,
                                                 const trace::Recorder* trace) {
  std::vector<std::string> violations;

  if (acc.terminal() != acc.arrived) {
    std::ostringstream os;
    os << "serve accounting: arrived " << acc.arrived
       << " != accounted " << acc.terminal() << " (ok " << acc.completed_ok
       << " + late " << acc.completed_late << " + shed-queue "
       << acc.shed_queue_full << " + shed-breaker " << acc.shed_breaker
       << " + shed-no-device " << acc.shed_no_device
       << " + shed-failover-exhausted " << acc.shed_failover_exhausted
       << " + timed-out " << acc.timed_out_queued << " + quarantined "
       << acc.quarantined << ")";
    violations.push_back(os.str());
  }

  const std::uint64_t dropped = acc.shed() + acc.timed_out_queued;
  if (acc.undispatched_apps.size() + acc.shed_after_dispatch != dropped) {
    std::ostringstream os;
    os << "serve accounting: " << acc.undispatched_apps.size()
       << " undispatched app ids + " << acc.shed_after_dispatch
       << " shed after dispatch reported but " << dropped
       << " jobs were shed or expired";
    violations.push_back(os.str());
  }

  if (trace != nullptr && !acc.undispatched_apps.empty()) {
    const std::set<std::int32_t> undispatched(acc.undispatched_apps.begin(),
                                              acc.undispatched_apps.end());
    std::map<std::int32_t, std::size_t> leaked;
    for (const trace::Span& s : *trace) {
      if (undispatched.count(s.app_id) != 0) ++leaked[s.app_id];
    }
    for (const auto& [app_id, count] : leaked) {
      std::ostringstream os;
      os << "serve accounting: shed job " << app_id << " owns " << count
         << " trace span(s); shed work must never consume device time";
      violations.push_back(os.str());
    }
  }

  return violations;
}

}  // namespace hq::check
