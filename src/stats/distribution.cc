#include "stats/distribution.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace e2e {

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  if (sorted_.empty()) {
    throw std::invalid_argument("EmpiricalCdf: no samples");
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::Cdf(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::Quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("EmpiricalCdf::Quantile: q out of [0,1]");
  }
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double EmpiricalCdf::Mean() const {
  return std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::Sample(Rng& rng) const {
  const auto i = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(sorted_.size()) - 1));
  return sorted_[i];
}

DiscreteDistribution DiscreteDistribution::PointMass(double value) {
  return DiscreteDistribution({value}, {1.0});
}

DiscreteDistribution::DiscreteDistribution(std::vector<double> values,
                                           std::vector<double> probabilities)
    : values_(std::move(values)), probs_(std::move(probabilities)) {
  if (values_.empty() || values_.size() != probs_.size()) {
    throw std::invalid_argument(
        "DiscreteDistribution: values/probabilities size mismatch or empty");
  }
  // NaN has no place in an ordered support (and would break the sort's
  // strict weak order below).
  if (std::any_of(values_.begin(), values_.end(),
                  [](double v) { return std::isnan(v); })) {
    throw std::invalid_argument("DiscreteDistribution: NaN support value");
  }
  double total = 0.0;
  for (double p : probs_) {
    if (p < 0.0) {
      throw std::invalid_argument("DiscreteDistribution: negative probability");
    }
    total += p;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("DiscreteDistribution: zero total probability");
  }
  for (double& p : probs_) p /= total;
  // Sort support ascending, keeping probabilities aligned. A stable sort of
  // a non-decreasing support is the identity, and every G in the tree emits
  // one, so that case keeps its bytes without the index sort and copies.
  if (std::is_sorted(values_.begin(), values_.end())) return;
  std::vector<std::size_t> order(values_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return values_[a] < values_[b];
  });
  std::vector<double> v(values_.size()), p(values_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    v[i] = values_[order[i]];
    p[i] = probs_[order[i]];
  }
  values_ = std::move(v);
  probs_ = std::move(p);
}

DiscreteDistribution DiscreteDistribution::FromSamples(
    std::span<const double> samples, int num_points) {
  if (samples.empty()) {
    throw std::invalid_argument("DiscreteDistribution::FromSamples: empty");
  }
  if (num_points < 1) {
    throw std::invalid_argument(
        "DiscreteDistribution::FromSamples: num_points < 1");
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(num_points));
  // Midpoint quantiles: point i represents mass ((i + 0.5) / num_points).
  for (int i = 0; i < num_points; ++i) {
    const double q = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(num_points);
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    values.push_back(sorted[lo] * (1.0 - frac) + sorted[hi] * frac);
  }
  std::vector<double> probs(values.size(),
                            1.0 / static_cast<double>(values.size()));
  return DiscreteDistribution(std::move(values), std::move(probs));
}

double DiscreteDistribution::Expect(
    const std::function<double(double)>& f) const {
  double total = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    total += f(values_[i]) * probs_[i];
  }
  return total;
}

double DiscreteDistribution::Mean() const {
  double total = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    total += values_[i] * probs_[i];
  }
  return total;
}

double DiscreteDistribution::Variance() const {
  const double mu = Mean();
  double total = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    total += (values_[i] - mu) * (values_[i] - mu) * probs_[i];
  }
  return total;
}

DiscreteDistribution DiscreteDistribution::ShiftedBy(double delta) const {
  std::vector<double> values(values_);
  for (double& v : values) v += delta;
  return DiscreteDistribution(std::move(values), probs_);
}

DiscreteDistribution DiscreteDistribution::ScaledBy(double factor) const {
  if (factor <= 0.0) {
    throw std::invalid_argument("DiscreteDistribution::ScaledBy: factor <= 0");
  }
  std::vector<double> values(values_);
  for (double& v : values) v *= factor;
  return DiscreteDistribution(std::move(values), probs_);
}

double DiscreteDistribution::Sample(Rng& rng) const {
  return values_[rng.Categorical(probs_)];
}

}  // namespace e2e
