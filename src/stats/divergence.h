// Distribution-change detection for temporal coarsening (§5).
//
// The decision lookup table is recomputed only when the external-delay or
// server-side-delay distribution has moved by a "significant amount"; the
// paper suggests Jensen-Shannon divergence as the trigger metric.
#pragma once

#include <span>
#include <vector>

namespace e2e {

/// A fixed-range histogram with equal-width bins, used to compare
/// distributions over a common support.
class FixedHistogram {
 public:
  /// Bins [lo, hi) into `bins` equal-width buckets; values outside the range
  /// clamp to the first/last bucket. Throws std::invalid_argument unless lo
  /// and hi are finite, lo < hi and bins >= 1.
  FixedHistogram(double lo, double hi, int bins);

  /// Adds one observation.
  void Add(double x);

  /// Adds many observations.
  void AddAll(std::span<const double> xs);

  /// Probability vector (counts normalized to sum 1; all-zero when empty).
  std::vector<double> Probabilities() const;

  /// Total observation count.
  std::size_t Count() const { return total_; }

  /// Number of bins.
  int Bins() const { return static_cast<int>(counts_.size()); }

  /// Resets all counts to zero.
  void Clear();

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Kullback-Leibler divergence KL(p || q) in bits. Terms where p_i == 0
/// contribute zero; q_i == 0 with p_i > 0 would be infinite, so q is
/// implicitly smoothed by epsilon. Vectors must be equal-length probability
/// vectors.
double KlDivergence(std::span<const double> p, std::span<const double> q);

/// Jensen-Shannon divergence in bits; symmetric, bounded in [0, 1].
double JsDivergence(std::span<const double> p, std::span<const double> q);

/// Convenience: JS divergence between two sample sets over [lo, hi) with
/// `bins` buckets.
double JsDivergenceOfSamples(std::span<const double> a,
                             std::span<const double> b, double lo, double hi,
                             int bins);

}  // namespace e2e
