#include "qoe/objective.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stats/fairness.h"
#include "stats/summary.h"

namespace e2e {
namespace {

// Weighted mean expected QoE, accumulated in bucket order. This is the
// exact accumulation the pre-objective evaluator used (sum of
// weight * expected per bucket), so the mean objective is bit-compatible
// with historical tables; the other objectives reuse it for their mean
// terms so mixed scores stay order-fixed too.
double WeightedMean(std::span<const QoeBucketView> buckets) {
  double total = 0.0;
  for (const QoeBucketView& b : buckets) {
    total += b.weight * b.expected_qoe;
  }
  return total;
}

class MeanQoeObjective final : public Objective {
 public:
  std::string Name() const override { return "mean"; }
  bool NeedsDistribution() const override { return false; }
  double Score(std::span<const QoeBucketView> buckets) const override {
    return WeightedMean(buckets);
  }
};

class TailPercentileObjective final : public Objective {
 public:
  TailPercentileObjective(double percentile, double mean_weight)
      : percentile_(percentile), mean_weight_(mean_weight) {}

  std::string Name() const override {
    // Integer percentiles render without a trailing ".0" ("p10", "p5").
    const auto rounded = static_cast<int>(percentile_);
    if (static_cast<double>(rounded) == percentile_) {
      return "p" + std::to_string(rounded);
    }
    return "p" + std::to_string(percentile_);
  }

  double Score(std::span<const QoeBucketView> buckets) const override {
    // Pool the per-bucket QoE distributions: value Q with mass
    // bucket_weight * probability. Pooling in bucket order keeps the input
    // to the (sorting) percentile estimator a pure function of the views.
    values_.clear();
    masses_.clear();
    for (const QoeBucketView& b : buckets) {
      for (std::size_t i = 0; i < b.qoe_values.size(); ++i) {
        values_.push_back(b.qoe_values[i]);
        masses_.push_back(b.weight * b.probabilities[i]);
      }
    }
    const double tail =
        WeightedPercentile(values_, masses_, percentile_, order_);
    return tail + mean_weight_ * WeightedMean(buckets);
  }

 private:
  double percentile_;
  double mean_weight_;
  // Working memory, reused from one Score to the next.
  mutable std::vector<double> values_;
  mutable std::vector<double> masses_;
  mutable std::vector<std::pair<double, std::size_t>> order_;
};

class MeanMinusStdevObjective final : public Objective {
 public:
  explicit MeanMinusStdevObjective(double lambda) : lambda_(lambda) {}

  std::string Name() const override { return "mean-stdev"; }

  double Score(std::span<const QoeBucketView> buckets) const override {
    const double mean = WeightedMean(buckets);
    // E[Q²] over the pooled distribution, accumulated in bucket order.
    double second = 0.0;
    for (const QoeBucketView& b : buckets) {
      double bucket_second = 0.0;
      for (std::size_t i = 0; i < b.qoe_values.size(); ++i) {
        bucket_second += b.qoe_values[i] * b.qoe_values[i] *
                         b.probabilities[i];
      }
      second += b.weight * bucket_second;
    }
    const double variance = std::max(0.0, second - mean * mean);
    return mean - lambda_ * std::sqrt(variance);
  }

 private:
  double lambda_;
};

class FairnessConstrainedMeanObjective final : public Objective {
 public:
  FairnessConstrainedMeanObjective(double min_fairness, double penalty)
      : min_fairness_(min_fairness), penalty_(penalty) {}

  std::string Name() const override { return "fair-mean"; }
  bool NeedsDistribution() const override { return false; }

  double Score(std::span<const QoeBucketView> buckets) const override {
    const double mean = WeightedMean(buckets);
    expected_.clear();
    weights_.clear();
    for (const QoeBucketView& b : buckets) {
      expected_.push_back(b.expected_qoe);
      weights_.push_back(b.weight);
    }
    const double jain = WeightedJainFairnessIndex(expected_, weights_);
    return mean - penalty_ * std::max(0.0, min_fairness_ - jain);
  }

 private:
  double min_fairness_;
  double penalty_;
  // Working memory, reused from one Score to the next.
  mutable std::vector<double> expected_;
  mutable std::vector<double> weights_;
};

void RequireFiniteNonNegative(double value, const char* field) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(std::string("MakeObjective: ") + field +
                                " not finite and >= 0");
  }
}

}  // namespace

std::string ToString(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kMeanQoe:
      return "mean";
    case ObjectiveKind::kTailPercentile:
      return "tail-percentile";
    case ObjectiveKind::kMeanMinusStdev:
      return "mean-stdev";
    case ObjectiveKind::kFairnessConstrainedMean:
      return "fair-mean";
  }
  throw std::invalid_argument("ToString: unknown ObjectiveKind");
}

std::unique_ptr<const Objective> MakeObjective(const ObjectiveConfig& config) {
  // Every range test is written so NaN fails it. The weight, λ and penalty
  // must also be finite: an infinite one scores every candidate ±inf or NaN.
  switch (config.kind) {
    case ObjectiveKind::kMeanQoe:
      return std::make_unique<MeanQoeObjective>();
    case ObjectiveKind::kTailPercentile:
      if (!(config.percentile > 0.0 && config.percentile < 100.0)) {
        throw std::invalid_argument(
            "MakeObjective: percentile out of (0, 100)");
      }
      RequireFiniteNonNegative(config.tail_mean_weight, "tail_mean_weight");
      return std::make_unique<TailPercentileObjective>(
          config.percentile, config.tail_mean_weight);
    case ObjectiveKind::kMeanMinusStdev:
      RequireFiniteNonNegative(config.stdev_lambda, "stdev_lambda");
      return std::make_unique<MeanMinusStdevObjective>(config.stdev_lambda);
    case ObjectiveKind::kFairnessConstrainedMean:
      if (!(config.min_fairness >= 0.0 && config.min_fairness <= 1.0)) {
        throw std::invalid_argument(
            "MakeObjective: min_fairness out of [0, 1]");
      }
      RequireFiniteNonNegative(config.fairness_penalty, "fairness_penalty");
      return std::make_unique<FairnessConstrainedMeanObjective>(
          config.min_fairness, config.fairness_penalty);
  }
  throw std::invalid_argument("MakeObjective: unknown ObjectiveKind");
}

}  // namespace e2e
