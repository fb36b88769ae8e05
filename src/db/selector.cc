#include "db/selector.h"

#include <algorithm>
#include <stdexcept>

namespace e2e::db {

int LoadBalancedSelector::SelectReplica(const DbRequest& /*request*/,
                                        const ClusterView& view) {
  if (view.loads.empty()) {
    throw std::invalid_argument("LoadBalancedSelector: empty view");
  }
  // Least loaded; ties rotate so equal-load replicas share traffic evenly.
  int best = -1;
  int best_load = 0;
  const std::size_t n = view.loads.size();
  for (std::size_t offset = 0; offset < n; ++offset) {
    const std::size_t i = (next_ + offset) % n;
    if (best < 0 || view.loads[i] < best_load) {
      best = static_cast<int>(i);
      best_load = view.loads[i];
    }
  }
  next_ = (static_cast<std::size_t>(best) + 1) % n;
  return best;
}

int LatencyAwareSelector::SelectReplica(const DbRequest& /*request*/,
                                        const ClusterView& view) {
  if (view.loads.empty()) {
    throw std::invalid_argument("LatencyAwareSelector: empty view");
  }
  int best = -1;
  double best_score = 0.0;
  const std::size_t n = view.loads.size();
  for (std::size_t offset = 0; offset < n; ++offset) {
    const std::size_t i = (next_ + offset) % n;
    const double observed =
        i < view.recent_delay_ms.size() ? view.recent_delay_ms[i] : 0.0;
    const double score =
        observed + load_weight_ms_ * static_cast<double>(view.loads[i]);
    if (best < 0 || score < best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  next_ = (static_cast<std::size_t>(best) + 1) % n;
  return best;
}

void TableSelector::SetTable(DecisionTable table) {
  table.Validate();
  // Mostly the matched replica, with an epsilon spread that keeps every
  // bucket sampling every replica. The spread both smooths bursts and keeps
  // the sacrificial replica's backlog bounded.
  const std::size_t decisions = table.load_fractions.size();
  const double spread =
      decisions > 1 ? epsilon_ / static_cast<double>(decisions - 1) : 0.0;
  probabilities_.assign(decisions, std::vector<double>(decisions, spread));
  for (std::size_t d = 0; d < decisions; ++d) {
    probabilities_[d][d] = 1.0 - epsilon_;
  }
  table_ = std::move(table);
}

int TableSelector::SelectReplica(const DbRequest& request,
                                 const ClusterView& view) {
  if (view.loads.empty()) {
    throw std::invalid_argument("TableSelector: empty view");
  }
  if (!HasTable()) {
    // No table yet (or total controller failure): fall back to the default
    // load-balanced behaviour (§5, fault tolerance).
    const std::size_t n = view.loads.size();
    const std::size_t pick = fallback_next_ % n;
    fallback_next_ = (fallback_next_ + 1) % n;
    return static_cast<int>(pick);
  }
  const auto decision =
      static_cast<std::size_t>(table_.Lookup(request.external_delay_ms));
  const auto pick = rng_.Categorical(probabilities_[decision]);
  return static_cast<int>(
      std::min<std::size_t>(pick, view.loads.size() - 1));
}

}  // namespace e2e::db
