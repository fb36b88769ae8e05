// Streaming moment tracking and percentile helpers.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace e2e {

/// Accumulates count/mean/variance/min/max in one pass (Welford's method).
/// Numerically stable; O(1) memory.
class StreamingSummary {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations.
  std::size_t count() const { return count_; }

  /// Arithmetic mean; 0 when empty.
  double mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Population variance; 0 when fewer than two observations.
  double variance() const;

  /// Population standard deviation.
  double stddev() const;

  /// Coefficient of variation (stddev / mean); 0 when mean is 0.
  double cov() const;

  /// Smallest observation; 0 when empty.
  double min() const { return count_ == 0 ? 0.0 : min_; }

  /// Largest observation; 0 when empty.
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Sum of all observations.
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Returns the p-th percentile (p in [0, 100]) of `samples` using linear
/// interpolation between closest ranks. `samples` need not be sorted; a
/// sorted copy is made. Throws std::invalid_argument when empty or p is out
/// of range.
double Percentile(std::span<const double> samples, double p);

/// As Percentile, but `sorted` must already be ascending (no copy is made).
double PercentileSorted(std::span<const double> sorted, double p);

/// Convenience: percentiles at several points over one sorted copy.
std::vector<double> Percentiles(std::span<const double> samples,
                                std::span<const double> ps);

/// The p-th percentile (p in [0, 100]) of the discrete distribution given
/// by parallel `values`/`weights` spans: the smallest value whose cumulative
/// weight reaches p% of the total (lower inverse-CDF; no interpolation —
/// the inputs are genuine point masses, not samples of a continuum).
/// Zero-weight entries never influence the result. Throws
/// std::invalid_argument when the spans mismatch or are empty, p is NaN or
/// out of range, any value is NaN, any weight is negative or NaN, or the
/// total weight is zero.
double WeightedPercentile(std::span<const double> values,
                          std::span<const double> weights, double p);

/// As above, sorting in caller-owned `order` instead of a fresh vector: it
/// ends up holding (value, position) for every positive-weight entry,
/// ascending, so equal values stay in input order. A caller that keeps
/// `order` across calls allocates only when the input outgrows it.
double WeightedPercentile(std::span<const double> values,
                          std::span<const double> weights, double p,
                          std::vector<std::pair<double, std::size_t>>& order);

}  // namespace e2e
