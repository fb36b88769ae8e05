#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace e2e {

void StreamingSummary::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double StreamingSummary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double StreamingSummary::stddev() const { return std::sqrt(variance()); }

double StreamingSummary::cov() const {
  return mean() == 0.0 ? 0.0 : stddev() / mean();
}

double PercentileSorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) {
    throw std::invalid_argument("PercentileSorted: empty sample set");
  }
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("PercentileSorted: p out of [0,100]");
  }
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Percentile(std::span<const double> samples, double p) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return PercentileSorted(sorted, p);
}

std::vector<double> Percentiles(std::span<const double> samples,
                                std::span<const double> ps) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(PercentileSorted(sorted, p));
  return out;
}

double WeightedPercentile(std::span<const double> values,
                          std::span<const double> weights, double p) {
  std::vector<std::pair<double, std::size_t>> order;
  return WeightedPercentile(values, weights, p, order);
}

double WeightedPercentile(std::span<const double> values,
                          std::span<const double> weights, double p,
                          std::vector<std::pair<double, std::size_t>>& order) {
  if (values.size() != weights.size()) {
    throw std::invalid_argument("WeightedPercentile: size mismatch");
  }
  if (values.empty()) {
    throw std::invalid_argument("WeightedPercentile: empty input");
  }
  if (!(p >= 0.0 && p <= 100.0)) {  // NaN fails too.
    throw std::invalid_argument("WeightedPercentile: p out of [0,100]");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!(weights[i] >= 0.0)) {
      throw std::invalid_argument("WeightedPercentile: negative or NaN weight");
    }
    // A NaN value would leave the sort below without a strict order.
    if (std::isnan(values[i])) {
      throw std::invalid_argument("WeightedPercentile: NaN value");
    }
    total += weights[i];
  }
  if (total == 0.0) {
    throw std::invalid_argument("WeightedPercentile: zero total weight");
  }
  // Point masses in ascending value, equal values in input order: the
  // position breaks the tie, so the order is fully specified and the
  // cumulative sum adds the masses in one fixed order.
  order.clear();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (weights[i] > 0.0) order.emplace_back(values[i], i);
  }
  std::sort(order.begin(), order.end());
  const double target = p / 100.0 * total;
  double cumulative = 0.0;
  for (const auto& [value, i] : order) {
    cumulative += weights[i];
    if (cumulative >= target) return value;
  }
  return order.back().first;  // Floating-point shortfall: clamp to the max.
}

}  // namespace e2e
