#include "fleet/placement.hpp"

namespace hq::fleet {

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::RoundRobin: return "round-robin";
    case PlacementPolicy::LeastLoaded: return "least-loaded";
    case PlacementPolicy::CopyAware: return "copy-aware";
    case PlacementPolicy::ClassAffinity: return "class-affinity";
  }
  return "?";
}

std::vector<PlacementPolicy> all_placement_policies() {
  return {PlacementPolicy::RoundRobin, PlacementPolicy::LeastLoaded,
          PlacementPolicy::CopyAware, PlacementPolicy::ClassAffinity};
}

std::optional<std::size_t> Placer::place(std::span<const DeviceLoad> loads,
                                         std::size_t klass) {
  const std::size_t n = loads.size();
  if (n == 0) return std::nullopt;

  switch (policy_) {
    case PlacementPolicy::RoundRobin: {
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i = (rr_next_ + step) % n;
        if (loads[i].healthy) {
          rr_next_ = (i + 1) % n;
          return i;
        }
      }
      return std::nullopt;
    }
    case PlacementPolicy::LeastLoaded: {
      std::optional<std::size_t> best;
      for (std::size_t i = 0; i < n; ++i) {
        if (!loads[i].healthy) continue;
        if (!best || loads[i].outstanding < loads[*best].outstanding) best = i;
      }
      return best;
    }
    case PlacementPolicy::CopyAware: {
      std::optional<std::size_t> best;
      double best_score = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!loads[i].healthy) continue;
        const double score = static_cast<double>(loads[i].outstanding) +
                             copy_penalty_ *
                                 static_cast<double>(loads[i].copy_depth);
        if (!best || score < best_score) {
          best = i;
          best_score = score;
        }
      }
      return best;
    }
    case PlacementPolicy::ClassAffinity: {
      const std::size_t preferred = klass % n;
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i = (preferred + step) % n;
        if (loads[i].healthy) return i;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace hq::fleet
