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
  return Build(1, [value](std::span<double> values, std::span<double> probs) {
    values[0] = value;
    probs[0] = 1.0;
  });
}

DiscreteDistribution::DiscreteDistribution(std::size_t n) : size_(n) {
  if (n == 0) {
    throw std::invalid_argument(
        "DiscreteDistribution: values/probabilities size mismatch or empty");
  }
  if (!inline_size()) {
    heap_values_.resize(n);
    heap_probs_.resize(n);
  }
}

DiscreteDistribution::DiscreteDistribution(std::vector<double> values,
                                           std::vector<double> probabilities)
    : size_(values.size()) {
  if (values.empty() || values.size() != probabilities.size()) {
    throw std::invalid_argument(
        "DiscreteDistribution: values/probabilities size mismatch or empty");
  }
  if (inline_size()) {
    std::copy(values.begin(), values.end(), inline_values_.begin());
    std::copy(probabilities.begin(), probabilities.end(),
              inline_probs_.begin());
  } else {
    heap_values_ = std::move(values);
    heap_probs_ = std::move(probabilities);
  }
  Normalize();
}

void DiscreteDistribution::Normalize() {
  const std::span<double> values = mutable_values();
  const std::span<double> probs = mutable_probabilities();
  // NaN has no place in an ordered support (and would break the sort's
  // strict weak order below).
  if (std::any_of(values.begin(), values.end(),
                  [](double v) { return std::isnan(v); })) {
    throw std::invalid_argument("DiscreteDistribution: NaN support value");
  }
  double total = 0.0;
  for (double p : probs) {
    if (p < 0.0) {
      throw std::invalid_argument("DiscreteDistribution: negative probability");
    }
    total += p;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("DiscreteDistribution: zero total probability");
  }
  for (double& p : probs) p /= total;
  // Sort support ascending, keeping probabilities aligned. A stable sort of
  // a non-decreasing support is the identity, and every G in the tree emits
  // one, so that case keeps its bytes without the index sort and copies.
  if (std::is_sorted(values.begin(), values.end())) return;
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [values](std::size_t a, std::size_t b) {
                     return values[a] < values[b];
                   });
  const std::vector<double> v(values.begin(), values.end());
  const std::vector<double> p(probs.begin(), probs.end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    values[i] = v[order[i]];
    probs[i] = p[order[i]];
  }
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
  const auto n = static_cast<std::size_t>(num_points);
  return Build(n, [&](std::span<double> values, std::span<double> probs) {
    // Midpoint quantiles: point i represents mass ((i + 0.5) / num_points).
    for (std::size_t i = 0; i < n; ++i) {
      const double q =
          (static_cast<double>(i) + 0.5) / static_cast<double>(num_points);
      const double rank = q * static_cast<double>(sorted.size() - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const auto hi = std::min(lo + 1, sorted.size() - 1);
      const double frac = rank - static_cast<double>(lo);
      values[i] = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    }
    std::fill(probs.begin(), probs.end(), 1.0 / static_cast<double>(n));
  });
}

double DiscreteDistribution::Expect(
    const std::function<double(double)>& f) const {
  const auto vals = values();
  const auto probs = probabilities();
  double total = 0.0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    total += f(vals[i]) * probs[i];
  }
  return total;
}

double DiscreteDistribution::Mean() const {
  const auto vals = values();
  const auto probs = probabilities();
  double total = 0.0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    total += vals[i] * probs[i];
  }
  return total;
}

double DiscreteDistribution::Variance() const {
  const double mu = Mean();
  const auto vals = values();
  const auto probs = probabilities();
  double total = 0.0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    total += (vals[i] - mu) * (vals[i] - mu) * probs[i];
  }
  return total;
}

// ShiftedBy and ScaledBy hand the already-normalized probabilities through
// Normalize() again, as the vector constructor always did, so their bytes
// are those of the historical copies.
DiscreteDistribution DiscreteDistribution::ShiftedBy(double delta) const {
  return Build(size_, [this, delta](std::span<double> vals,
                                    std::span<double> probs) {
    const auto from = values();
    for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = from[i] + delta;
    std::copy(probabilities().begin(), probabilities().end(), probs.begin());
  });
}

DiscreteDistribution DiscreteDistribution::ScaledBy(double factor) const {
  if (factor <= 0.0) {
    throw std::invalid_argument("DiscreteDistribution::ScaledBy: factor <= 0");
  }
  return Build(size_, [this, factor](std::span<double> vals,
                                     std::span<double> probs) {
    const auto from = values();
    for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = from[i] * factor;
    std::copy(probabilities().begin(), probabilities().end(), probs.begin());
  });
}

double DiscreteDistribution::Sample(Rng& rng) const {
  return values()[rng.Categorical(probabilities())];
}

}  // namespace e2e
