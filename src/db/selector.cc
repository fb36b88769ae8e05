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

void TableSelector::SetTable(std::vector<Entry> entries) {
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].lo < entries[i - 1].lo) {
      throw std::invalid_argument("TableSelector: entries not sorted");
    }
  }
  for (const Entry& e : entries) {
    if (e.probabilities.empty()) {
      throw std::invalid_argument("TableSelector: entry without probabilities");
    }
  }
  entries_ = std::move(entries);
}

int TableSelector::SelectReplica(const DbRequest& request,
                                 const ClusterView& view) {
  if (view.loads.empty()) {
    throw std::invalid_argument("TableSelector: empty view");
  }
  if (entries_.empty()) {
    // No table yet (or total controller failure): fall back to the default
    // load-balanced behaviour (§5, fault tolerance).
    const std::size_t n = view.loads.size();
    const std::size_t pick = fallback_next_ % n;
    fallback_next_ = (fallback_next_ + 1) % n;
    return static_cast<int>(pick);
  }
  // Binary search the bucket containing the request's external delay.
  std::size_t lo = 0;
  std::size_t hi = entries_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (request.external_delay_ms >= entries_[mid].lo) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const Entry& entry = entries_[lo];
  const auto pick = rng_.Categorical(entry.probabilities);
  return static_cast<int>(
      std::min<std::size_t>(pick, view.loads.size() - 1));
}

}  // namespace e2e::db
