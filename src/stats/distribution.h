// Empirical CDFs and discrete delay distributions.
//
// The E2E controller reasons about server-side delays as distributions (§4.3:
// edge weights are expectations of Q(c + s) over the slot's delay
// distribution), and about external delays as a windowed empirical CDF (§5).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "util/rng.h"

namespace e2e {

/// An empirical cumulative distribution built from samples. Immutable after
/// construction; queries are O(log n).
class EmpiricalCdf {
 public:
  /// Builds from samples (copied and sorted). Throws when empty.
  explicit EmpiricalCdf(std::vector<double> samples);

  /// Fraction of samples <= x, in [0, 1].
  double Cdf(double x) const;

  /// Inverse CDF: the q-th quantile, q in [0, 1].
  double Quantile(double q) const;

  /// Mean of the samples.
  double Mean() const;

  /// Number of underlying samples.
  std::size_t Count() const { return sorted_.size(); }

  /// Sorted sample access (ascending).
  std::span<const double> Sorted() const { return sorted_; }

  /// Draws one sample uniformly from the underlying data.
  double Sample(Rng& rng) const;

 private:
  std::vector<double> sorted_;
};

/// A finite discrete distribution over real support points. Used as the
/// server-side delay model's per-decision output f_z(s): the controller
/// computes expected QoE by summing Q(c + s_i) * p_i.
class DiscreteDistribution {
 public:
  /// Point mass at `value`.
  static DiscreteDistribution PointMass(double value);

  /// Builds from explicit (value, probability) pairs, sorted by value (a
  /// stable sort: tied values keep their order). Probabilities are
  /// normalized; all must be non-negative with positive sum. Throws
  /// std::invalid_argument on a NaN value.
  DiscreteDistribution(std::vector<double> values,
                       std::vector<double> probabilities);

  /// Compresses `samples` into a `num_points`-point distribution by using
  /// evenly spaced quantiles (each point carries equal mass). Throws when
  /// samples are empty.
  static DiscreteDistribution FromSamples(std::span<const double> samples,
                                          int num_points);

  /// E[f(X)] for an arbitrary functional.
  double Expect(const std::function<double(double)>& f) const;

  /// Mean of the distribution.
  double Mean() const;

  /// Variance of the distribution.
  double Variance() const;

  /// Returns a copy shifted by `delta` (X + delta).
  DiscreteDistribution ShiftedBy(double delta) const;

  /// Returns a copy scaled by `factor` (X * factor); factor must be > 0.
  DiscreteDistribution ScaledBy(double factor) const;

  /// Draws a sample.
  double Sample(Rng& rng) const;

  /// Support points (ascending).
  std::span<const double> values() const { return values_; }

  /// Probabilities aligned with values(); sums to 1.
  std::span<const double> probabilities() const { return probs_; }

 private:
  std::vector<double> values_;
  std::vector<double> probs_;
};

}  // namespace e2e
