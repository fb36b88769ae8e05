// Empirical CDFs and discrete delay distributions.
//
// The E2E controller reasons about server-side delays as distributions (§4.3:
// edge weights are expectations of Q(c + s) over the slot's delay
// distribution), and about external delays as a windowed empirical CDF (§5).
// G hands the policy one DiscreteDistribution per decision on every
// evaluation, so a small one keeps its support inside the object and costs
// no heap allocation to build, copy or move (docs/PERFORMANCE.md §8).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

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

 private:
  std::vector<double> sorted_;
};

/// A finite discrete distribution over real support points. Used as the
/// server-side delay model's per-decision output f_z(s): the controller
/// computes expected QoE by summing Q(c + s_i) * p_i.
///
/// Storage: up to kInlinePoints support points live inside the object, so
/// building, copying or moving such a distribution allocates nothing; every
/// G in the tree emits at most 12 (PriorityQueueModel's discretization and
/// ProfilerConfig::distribution_points). A larger support falls back to the
/// heap.
class DiscreteDistribution {
 public:
  /// Support sizes up to this many points are stored inline.
  static constexpr std::size_t kInlinePoints = 16;

  /// Point mass at `value`.
  static DiscreteDistribution PointMass(double value);

  /// Builds from explicit (value, probability) pairs, sorted by value (a
  /// stable sort: tied values keep their order). Probabilities are
  /// normalized; all must be non-negative with positive sum. Throws
  /// std::invalid_argument on a NaN value.
  DiscreteDistribution(std::vector<double> values,
                       std::vector<double> probabilities);

  /// Builds an `n`-point distribution in place: `fill(values,
  /// probabilities)` writes the support and its masses into two n-entry
  /// spans, and the result is then checked, normalized and sorted exactly
  /// as the vector constructor does, so the two give the same bytes.
  /// Allocates nothing up to kInlinePoints. Throws like the vector
  /// constructor (n == 0 included).
  template <typename Fill>
  static DiscreteDistribution Build(std::size_t n, Fill&& fill) {
    DiscreteDistribution d(n);
    fill(d.mutable_values(), d.mutable_probabilities());
    d.Normalize();
    return d;
  }

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

  /// Support points (ascending).
  std::span<const double> values() const {
    return inline_size() ? std::span<const double>(inline_values_.data(), size_)
                         : std::span<const double>(heap_values_);
  }

  /// Probabilities aligned with values(); sums to 1.
  std::span<const double> probabilities() const {
    return inline_size() ? std::span<const double>(inline_probs_.data(), size_)
                         : std::span<const double>(heap_probs_);
  }

 private:
  // An n-point distribution whose entries the caller writes (Build).
  explicit DiscreteDistribution(std::size_t n);

  bool inline_size() const { return size_ <= kInlinePoints; }
  std::span<double> mutable_values() {
    return inline_size() ? std::span<double>(inline_values_.data(), size_)
                         : std::span<double>(heap_values_);
  }
  std::span<double> mutable_probabilities() {
    return inline_size() ? std::span<double>(inline_probs_.data(), size_)
                         : std::span<double>(heap_probs_);
  }
  // The vector constructor's checks, normalization and stable sort.
  void Normalize();

  std::size_t size_ = 0;
  // The support while inline_size(), in the first size_ entries.
  std::array<double, kInlinePoints> inline_values_{};
  std::array<double, kInlinePoints> inline_probs_{};
  // The support when it exceeds kInlinePoints; empty otherwise.
  std::vector<double> heap_values_;
  std::vector<double> heap_probs_;
};

}  // namespace e2e
