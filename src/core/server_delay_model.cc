#include "core/server_delay_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace e2e {
namespace {

// Pointwise (quantile-space) interpolation between two equal-size discrete
// distributions, built in place.
DiscreteDistribution Blend(const DiscreteDistribution& a,
                           const DiscreteDistribution& b, double t) {
  if (a.values().size() != b.values().size()) {
    throw std::invalid_argument("Blend: support size mismatch");
  }
  return DiscreteDistribution::Build(
      a.values().size(), [&](std::span<double> values, std::span<double> probs) {
        for (std::size_t i = 0; i < values.size(); ++i) {
          values[i] = a.values()[i] * (1.0 - t) + b.values()[i] * t;
        }
        std::copy(a.probabilities().begin(), a.probabilities().end(),
                  probs.begin());
      });
}

// InterpolateProfile with the stable cap and the overload horizon passed
// in, so the overload branch re-interpolates at the cap over the same
// levels instead of copying the profile. That inner call sees the levels as
// a profile with no stability cap and the default horizon, which is what
// the copy it replaces held.
DiscreteDistribution Interpolate(const LoadProfile& profile,
                                 double max_stable_rps,
                                 double overload_horizon_ms, double rps) {
  rps = std::max(0.0, rps);
  const auto& levels = profile.level_rps;
  if (rps <= levels.front()) return profile.delays.front();
  const double stable_cap = std::min(levels.back(), max_stable_rps);
  if (rps >= stable_cap) {
    // Sustained overload: the excess arrival rate accumulates as backlog
    // over the update horizon, delaying every request behind it.
    const double over = stable_cap > 0.0 ? rps / stable_cap - 1.0 : 0.0;
    // Base distribution at the edge of the stable region.
    const DiscreteDistribution base =
        stable_cap >= levels.back()
            ? profile.delays.back()
            : Interpolate(profile, std::numeric_limits<double>::infinity(),
                          LoadProfile{}.overload_horizon_ms, stable_cap);
    return base.ShiftedBy(over * overload_horizon_ms);
  }
  // Find the surrounding levels.
  std::size_t hi = 1;
  while (hi < levels.size() && levels[hi] < rps) ++hi;
  const std::size_t lo = hi - 1;
  const double t = (rps - levels[lo]) / (levels[hi] - levels[lo]);
  return Blend(profile.delays[lo], profile.delays[hi], t);
}

}  // namespace

DiscreteDistribution InterpolateProfile(const LoadProfile& profile,
                                        double rps) {
  if (profile.level_rps.empty() ||
      profile.level_rps.size() != profile.delays.size()) {
    throw std::invalid_argument("InterpolateProfile: malformed profile");
  }
  return Interpolate(profile, profile.max_stable_rps,
                     profile.overload_horizon_ms, rps);
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
  if (static_cast<int>(load_fractions.size()) != replicas_) {
    throw std::invalid_argument("ProfiledReplicaModel: fraction size");
  }
  const double replica_rps =
      std::max(0.0, load_fractions[static_cast<std::size_t>(decision)]) *
      total_rps;
  return replica_rps >
         std::min(profile_.max_stable_rps,
                  profile_.level_rps.empty() ? 0.0
                                             : profile_.level_rps.back());
}

bool ProfiledReplicaModel::FlatUpTo(double decision_rps) const {
  // A replica offered at most the first level gets delays.front()
  // (Interpolate), and one offered at most the stable cap is not overloaded
  // (IsOverloaded; the first level is at most the last). NaN compares false.
  return decision_rps <=
         std::min(profile_.level_rps.front(), profile_.max_stable_rps);
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
  return DiscreteDistribution::Build(
      kDelayPoints, [&](std::span<double> values, std::span<double> probs) {
        for (std::size_t i = 0; i < values.size(); ++i) {
          values[i] = handling_cost_ms_ - mean_wait * log_survival_[i];
        }
        std::fill(probs.begin(), probs.end(),
                  1.0 / static_cast<double>(kDelayPoints));
      });
}

bool PriorityQueueModel::IsOverloaded(int decision,
                                      std::span<const double> load_fractions,
                                      double total_rps) const {
  if (decision < 0 || decision >= levels_) {
    throw std::out_of_range("PriorityQueueModel: bad decision");
  }
  if (static_cast<int>(load_fractions.size()) != levels_) {
    throw std::invalid_argument("PriorityQueueModel: fraction size");
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
