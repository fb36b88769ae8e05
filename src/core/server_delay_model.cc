#include "core/server_delay_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2e {
namespace {

// Pointwise (quantile-space) interpolation between two equal-size discrete
// distributions.
DiscreteDistribution Blend(const DiscreteDistribution& a,
                           const DiscreteDistribution& b, double t) {
  if (a.values().size() != b.values().size()) {
    throw std::invalid_argument("Blend: support size mismatch");
  }
  std::vector<double> values(a.values().size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = a.values()[i] * (1.0 - t) + b.values()[i] * t;
  }
  std::vector<double> probs(a.probabilities().begin(),
                            a.probabilities().end());
  return DiscreteDistribution(std::move(values), std::move(probs));
}

}  // namespace

DiscreteDistribution InterpolateProfile(const LoadProfile& profile,
                                        double rps) {
  if (profile.level_rps.empty() ||
      profile.level_rps.size() != profile.delays.size()) {
    throw std::invalid_argument("InterpolateProfile: malformed profile");
  }
  rps = std::max(0.0, rps);
  const auto& levels = profile.level_rps;
  if (rps <= levels.front()) return profile.delays.front();
  const double stable_cap = std::min(levels.back(), profile.max_stable_rps);
  if (rps >= stable_cap) {
    // Sustained overload: the excess arrival rate accumulates as backlog
    // over the update horizon, delaying every request behind it.
    const double over = stable_cap > 0.0 ? rps / stable_cap - 1.0 : 0.0;
    // Base distribution at the edge of the stable region.
    DiscreteDistribution base = [&] {
      if (stable_cap >= levels.back()) return profile.delays.back();
      LoadProfile clipped;
      clipped.level_rps = profile.level_rps;
      clipped.delays = profile.delays;
      clipped.max_stable_rps = std::numeric_limits<double>::infinity();
      return InterpolateProfile(clipped, stable_cap);
    }();
    return base.ShiftedBy(over * profile.overload_horizon_ms);
  }
  // Find the surrounding levels.
  std::size_t hi = 1;
  while (hi < levels.size() && levels[hi] < rps) ++hi;
  const std::size_t lo = hi - 1;
  const double t = (rps - levels[lo]) / (levels[hi] - levels[lo]);
  return Blend(profile.delays[lo], profile.delays[hi], t);
}

ProfiledReplicaModel::ProfiledReplicaModel(int replicas, LoadProfile profile)
    : replicas_(replicas), profile_(std::move(profile)) {
  if (replicas_ < 1) {
    throw std::invalid_argument("ProfiledReplicaModel: replicas < 1");
  }
  if (profile_.level_rps.empty() ||
      profile_.level_rps.size() != profile_.delays.size()) {
    throw std::invalid_argument("ProfiledReplicaModel: malformed profile");
  }
  for (std::size_t i = 1; i < profile_.level_rps.size(); ++i) {
    if (profile_.level_rps[i] <= profile_.level_rps[i - 1]) {
      throw std::invalid_argument(
          "ProfiledReplicaModel: profile levels not ascending");
    }
  }
}

DiscreteDistribution ProfiledReplicaModel::DelayDistribution(
    int decision, std::span<const double> load_fractions,
    double total_rps) const {
  if (decision < 0 || decision >= replicas_) {
    throw std::out_of_range("ProfiledReplicaModel: bad decision");
  }
  if (static_cast<int>(load_fractions.size()) != replicas_) {
    throw std::invalid_argument("ProfiledReplicaModel: fraction size");
  }
  const double replica_rps =
      std::max(0.0, load_fractions[static_cast<std::size_t>(decision)]) *
      total_rps;
  return InterpolateProfile(profile_, replica_rps);
}

bool ProfiledReplicaModel::IsOverloaded(
    int decision, std::span<const double> load_fractions,
    double total_rps) const {
  if (decision < 0 || decision >= replicas_) {
    throw std::out_of_range("ProfiledReplicaModel: bad decision");
  }
  const double replica_rps =
      std::max(0.0, load_fractions[static_cast<std::size_t>(decision)]) *
      total_rps;
  return replica_rps >
         std::min(profile_.max_stable_rps,
                  profile_.level_rps.empty() ? 0.0
                                             : profile_.level_rps.back());
}

PriorityQueueModel::PriorityQueueModel(int levels, double consume_interval_ms,
                                       int num_consumers,
                                       double handling_cost_ms,
                                       double overload_horizon_ms)
    : levels_(levels),
      consume_interval_ms_(consume_interval_ms),
      num_consumers_(num_consumers),
      handling_cost_ms_(handling_cost_ms),
      overload_horizon_ms_(overload_horizon_ms) {
  if (levels_ < 1 || consume_interval_ms_ <= 0.0 || num_consumers_ < 1 ||
      overload_horizon_ms_ <= 0.0) {
    throw std::invalid_argument("PriorityQueueModel: bad parameters");
  }
  for (int i = 0; i < kDelayPoints; ++i) {
    const double q =
        (static_cast<double>(i) + 0.5) / static_cast<double>(kDelayPoints);
    log_survival_[static_cast<std::size_t>(i)] = std::log(1.0 - q);
  }
}

double PriorityQueueModel::MeanWaitMs(int decision,
                                      std::span<const double> load_fractions,
                                      double total_rps) const {
  if (decision < 0 || decision >= levels_) {
    throw std::out_of_range("PriorityQueueModel: bad decision");
  }
  if (static_cast<int>(load_fractions.size()) != levels_) {
    throw std::invalid_argument("PriorityQueueModel: fraction size");
  }
  const double lambda_ms = total_rps / 1000.0;  // msgs per ms.
  const double mu_ms =
      static_cast<double>(num_consumers_) / consume_interval_ms_;
  // Utilization of levels <= p (priority 0 served first).
  double sigma_prev = 0.0;
  double sigma = 0.0;
  for (int k = 0; k <= decision; ++k) {
    const double rho =
        std::max(0.0, load_fractions[static_cast<std::size_t>(k)]) *
        lambda_ms / mu_ms;
    if (k < decision) sigma_prev += rho;
    sigma += rho;
  }
  // Residual service for deterministic service time S = 1/mu:
  // W0 = lambda * E[S^2] / 2 = lambda / (2 mu^2).
  const double w0 = lambda_ms / (2.0 * mu_ms * mu_ms);
  constexpr double kStabilityFloor = 0.02;
  if (1.0 - sigma < kStabilityFloor || 1.0 - sigma_prev < kStabilityFloor) {
    // Overloaded class: backlog grows for the rest of the update horizon.
    const double excess = std::max(sigma - 1.0, 0.0) + kStabilityFloor;
    return std::min(overload_horizon_ms_,
                    overload_horizon_ms_ * std::min(1.0, excess + 0.5));
  }
  const double wait = w0 / ((1.0 - sigma_prev) * (1.0 - sigma));
  // Plus the average residual pull interval before the first consumer look.
  return wait + consume_interval_ms_ / 2.0;
}

DiscreteDistribution PriorityQueueModel::DelayDistribution(
    int decision, std::span<const double> load_fractions,
    double total_rps) const {
  const double mean_wait = MeanWaitMs(decision, load_fractions, total_rps);
  // Queueing delays are right-skewed; approximate with an exponential
  // around the mean, discretized at mid-quantiles, shifted by the fixed
  // handling cost.
  std::vector<double> values;
  values.reserve(kDelayPoints);
  for (const double log_survival : log_survival_) {
    values.push_back(handling_cost_ms_ - mean_wait * log_survival);
  }
  std::vector<double> probs(values.size(),
                            1.0 / static_cast<double>(values.size()));
  return DiscreteDistribution(std::move(values), std::move(probs));
}

bool PriorityQueueModel::IsOverloaded(int decision,
                                      std::span<const double> load_fractions,
                                      double total_rps) const {
  if (decision < 0 || decision >= levels_) {
    throw std::out_of_range("PriorityQueueModel: bad decision");
  }
  const double lambda_ms = total_rps / 1000.0;
  const double mu_ms =
      static_cast<double>(num_consumers_) / consume_interval_ms_;
  double sigma = 0.0;
  for (int k = 0; k <= decision; ++k) {
    sigma += std::max(0.0, load_fractions[static_cast<std::size_t>(k)]) *
             lambda_ms / mu_ms;
  }
  return sigma >= 0.98;
}

}  // namespace e2e
