#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "proptest.h"
#include "stats/bucketizer.h"
#include "stats/distribution.h"
#include "stats/divergence.h"
#include "stats/fairness.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace e2e {
namespace {

TEST(StreamingSummary, BasicMoments) {
  StreamingSummary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.cov(), 0.4);
}

TEST(StreamingSummary, EmptyIsZero) {
  const StreamingSummary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25.0), 17.5);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> xs = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 25.0);
}

TEST(Percentile, InvalidInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(Percentile(empty, 50.0), std::invalid_argument);
  const std::vector<double> one = {1.0};
  EXPECT_THROW(Percentile(one, -1.0), std::invalid_argument);
  EXPECT_THROW(Percentile(one, 101.0), std::invalid_argument);
}

TEST(EmpiricalCdf, CdfAndQuantileAreConsistent) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Cdf(100.0), 1.0);
  EXPECT_NEAR(cdf.Cdf(50.0), 0.5, 0.01);
  EXPECT_NEAR(cdf.Quantile(0.5), 50.5, 0.5);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 100.0);
  EXPECT_NEAR(cdf.Mean(), 50.5, 1e-9);
}

TEST(EmpiricalCdf, EmptyThrows) {
  EXPECT_THROW(EmpiricalCdf({}), std::invalid_argument);
}

TEST(DiscreteDistribution, NormalizesAndSorts) {
  const DiscreteDistribution d({3.0, 1.0, 2.0}, {2.0, 1.0, 1.0});
  ASSERT_EQ(d.values().size(), 3u);
  EXPECT_DOUBLE_EQ(d.values()[0], 1.0);
  EXPECT_DOUBLE_EQ(d.values()[2], 3.0);
  EXPECT_DOUBLE_EQ(d.probabilities()[0], 0.25);
  EXPECT_DOUBLE_EQ(d.probabilities()[2], 0.5);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.25 * 1 + 0.25 * 2 + 0.5 * 3);
}

TEST(DiscreteDistribution, PointMass) {
  const auto d = DiscreteDistribution::PointMass(7.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 7.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 0.0);
}

TEST(DiscreteDistribution, ExpectAndShiftScale) {
  const DiscreteDistribution d({1.0, 3.0}, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(d.Expect([](double x) { return x * x; }), 5.0);
  EXPECT_DOUBLE_EQ(d.ShiftedBy(2.0).Mean(), 4.0);
  EXPECT_DOUBLE_EQ(d.ScaledBy(3.0).Mean(), 6.0);
  EXPECT_THROW(d.ScaledBy(0.0), std::invalid_argument);
}

TEST(DiscreteDistribution, FromSamplesPreservesMoments) {
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.Normal(100.0, 10.0));
  const auto d = DiscreteDistribution::FromSamples(samples, 16);
  EXPECT_NEAR(d.Mean(), 100.0, 1.0);
  EXPECT_NEAR(std::sqrt(d.Variance()), 10.0, 1.5);
}

TEST(DiscreteDistribution, InvalidInputsThrow) {
  EXPECT_THROW(DiscreteDistribution({}, {}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({1.0}, {-1.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({1.0}, {0.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution::FromSamples({}, 4), std::invalid_argument);
}

TEST(DiscreteDistribution, NanSupportThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DiscreteDistribution({nan}, {1.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({1.0, nan, 3.0}, {1.0, 1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({nan, 1.0}, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution::PointMass(nan), std::invalid_argument);
}

TEST(DiscreteDistribution, SortedSupportWithTiesKeepsItsBytes) {
  // A non-decreasing support is already in order: values keep their bytes
  // and order — ties included, even -0.0 before 0.0 — and each probability
  // stays at its value's index, normalized.
  const std::vector<double> values = {-0.0, 0.0, 2.0, 2.0, 2.0, 5.0};
  const std::vector<double> probs = {0.5, 1.0, 4.0, 2.0, 1.5, 1.0};
  const DiscreteDistribution d(values, probs);
  ASSERT_EQ(d.values().size(), values.size());
  double total = 0.0;
  for (const double p : probs) total += p;
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::signbit(d.values()[i]), std::signbit(values[i])) << i;
    EXPECT_EQ(d.values()[i], values[i]) << i;
    EXPECT_EQ(d.probabilities()[i], probs[i] / total) << i;
  }
}

TEST(DiscreteDistribution, UnsortedSupportSortsStablyWithAlignedMass) {
  // Unsorted input still sorts ascending; ties keep their input order and
  // every probability travels with its value.
  proptest::Check("distribution-stable-sort", [](Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 12));
    std::vector<double> values(n);
    std::vector<double> probs(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<double>(rng.UniformInt(0, 4));  // Many ties.
      probs[i] = static_cast<double>(i + 1);  // Identifies the input slot.
    }
    double total = 0.0;
    for (const double p : probs) total += p;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return values[a] < values[b];
                     });
    const DiscreteDistribution d(values, probs);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d.values()[i], values[order[i]]) << i;
      EXPECT_EQ(d.probabilities()[i], probs[order[i]] / total) << i;
    }
  });
}

// What the two-vector DiscreteDistribution computed, kept as the reference
// the inline storage must reproduce bit for bit: normalize by the summed
// mass in index order, then a stable index sort by value; ShiftedBy and
// ScaledBy rebuild from the moved values and the normalized probabilities.
struct VectorReference {
  std::vector<double> values;
  std::vector<double> probs;

  VectorReference(std::vector<double> v, std::vector<double> p) {
    double total = 0.0;
    for (const double x : p) total += x;
    for (double& x : p) x /= total;
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    for (const std::size_t i : order) {
      values.push_back(v[i]);
      probs.push_back(p[i]);
    }
  }
  double Mean() const {
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      total += values[i] * probs[i];
    }
    return total;
  }
  VectorReference ShiftedBy(double delta) const {
    std::vector<double> v = values;
    for (double& x : v) x += delta;
    return VectorReference(v, probs);
  }
  VectorReference ScaledBy(double factor) const {
    std::vector<double> v = values;
    for (double& x : v) x *= factor;
    return VectorReference(v, probs);
  }
};

bool SameBits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

void ExpectMatches(const DiscreteDistribution& d, const VectorReference& ref) {
  EXPECT_TRUE(SameBits(d.values(), ref.values));
  EXPECT_TRUE(SameBits(d.probabilities(), ref.probs));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.Mean()),
            std::bit_cast<std::uint64_t>(ref.Mean()));
}

TEST(DiscreteDistribution, InlineCapacityEdgesMatchVectorReference) {
  // At the inline capacity the support lives in the object; one point past
  // it, on the heap. Both must give the reference's bytes, through every
  // operation and every way of copying one distribution onto another.
  for (const std::size_t n : {DiscreteDistribution::kInlinePoints,
                              DiscreteDistribution::kInlinePoints + 1}) {
    SCOPED_TRACE(n);
    Rng rng(91 + n);
    std::vector<double> values(n);
    std::vector<double> probs(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Unsorted, with ties, so the stable index sort runs.
      values[i] = static_cast<double>(rng.UniformInt(0, 6)) * 1.37 - 2.0;
      probs[i] = rng.Uniform(0.1, 3.0);
    }
    ASSERT_FALSE(std::is_sorted(values.begin(), values.end()));
    const DiscreteDistribution d(values, probs);
    const VectorReference ref(values, probs);
    ExpectMatches(d, ref);
    ExpectMatches(d.ShiftedBy(2.5), ref.ShiftedBy(2.5));
    ExpectMatches(d.ScaledBy(1.7), ref.ScaledBy(1.7));

    const DiscreteDistribution copy(d);
    ExpectMatches(copy, ref);
    DiscreteDistribution source(d);
    const DiscreteDistribution moved(std::move(source));
    ExpectMatches(moved, ref);

    // Assignment onto a distribution of the other storage kind, both ways.
    const std::size_t other_n = n == DiscreteDistribution::kInlinePoints
                                    ? n + 1
                                    : DiscreteDistribution::kInlinePoints;
    DiscreteDistribution assigned(std::vector<double>(other_n, 1.0),
                                  std::vector<double>(other_n, 1.0));
    assigned = d;
    ExpectMatches(assigned, ref);
    DiscreteDistribution move_assigned(std::vector<double>(other_n, 1.0),
                                       std::vector<double>(other_n, 1.0));
    DiscreteDistribution donor(d);
    move_assigned = std::move(donor);
    ExpectMatches(move_assigned, ref);
    DiscreteDistribution back(d);
    back = DiscreteDistribution(std::vector<double>(other_n, 1.0),
                                std::vector<double>(other_n, 1.0));
    EXPECT_EQ(back.values().size(), other_n);
    back = d;
    ExpectMatches(back, ref);

    // Self-assignment leaves the distribution as it was.
    DiscreteDistribution self(d);
    const DiscreteDistribution& alias = self;
    self = alias;
    ExpectMatches(self, ref);
  }
}

TEST(Divergence, JsIsSymmetricAndBounded) {
  const std::vector<double> p = {0.7, 0.2, 0.1, 0.0};
  const std::vector<double> q = {0.1, 0.2, 0.3, 0.4};
  const double js_pq = JsDivergence(p, q);
  const double js_qp = JsDivergence(q, p);
  EXPECT_NEAR(js_pq, js_qp, 1e-12);
  EXPECT_GT(js_pq, 0.0);
  EXPECT_LE(js_pq, 1.0);
}

TEST(Divergence, IdenticalDistributionsAreZero) {
  const std::vector<double> p = {0.25, 0.25, 0.5};
  EXPECT_NEAR(JsDivergence(p, p), 0.0, 1e-12);
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-12);
}

TEST(Divergence, DisjointSupportIsOneBit) {
  const std::vector<double> p = {1.0, 0.0};
  const std::vector<double> q = {0.0, 1.0};
  EXPECT_NEAR(JsDivergence(p, q), 1.0, 1e-9);
}

TEST(Divergence, SamplesHelper) {
  Rng rng(5);
  std::vector<double> a, b, c;
  for (int i = 0; i < 5000; ++i) {
    a.push_back(rng.Normal(100.0, 10.0));
    b.push_back(rng.Normal(100.0, 10.0));
    c.push_back(rng.Normal(200.0, 10.0));
  }
  const double same = JsDivergenceOfSamples(a, b, 0.0, 300.0, 32);
  const double diff = JsDivergenceOfSamples(a, c, 0.0, 300.0, 32);
  EXPECT_LT(same, 0.02);
  EXPECT_GT(diff, 0.5);
}

TEST(FixedHistogram, ClampsOutOfRange) {
  FixedHistogram h(0.0, 10.0, 5);
  h.Add(-5.0);
  h.Add(15.0);
  h.Add(5.0);
  const auto p = h.Probabilities();
  EXPECT_DOUBLE_EQ(p[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p[4], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p[2], 1.0 / 3.0);
  h.Clear();
  EXPECT_EQ(h.Count(), 0u);
}

TEST(Fairness, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex(std::vector<double>{1, 1, 1, 1}), 1.0);
  EXPECT_NEAR(JainFairnessIndex(std::vector<double>{1, 0, 0, 0}), 0.25, 1e-12);
  EXPECT_THROW(JainFairnessIndex({}), std::invalid_argument);
  EXPECT_THROW(JainFairnessIndex(std::vector<double>{-1.0}),
               std::invalid_argument);
}

TEST(Fairness, AllZeroIsFair) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex(std::vector<double>{0, 0, 0}), 1.0);
}

TEST(Correlation, PearsonKnownValues) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> up = {2, 4, 6, 8, 10};
  const std::vector<double> down = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(xs, down), -1.0, 1e-12);
  const std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(xs, flat), 0.0);
}

TEST(Correlation, SpearmanMonotoneNonlinear) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {1, 8, 27, 64, 125};  // Monotone, nonlinear.
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(Correlation, IndependentNearZero) {
  Rng rng(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.Normal(0.0, 1.0));
    ys.push_back(rng.Normal(0.0, 1.0));
  }
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 0.0, 0.03);
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 0.0, 0.03);
}

// --- Bucketizer property sweep ------------------------------------------

struct BucketizerCase {
  int target_buckets;
  double max_span;
  std::uint64_t seed;
};

// Names each case by its fields ("…/k16-span1500-seed3") in ctest, instead
// of by the param's raw bytes.
void PrintTo(const BucketizerCase& c, std::ostream* os) {
  *os << "k" << c.target_buckets << "-span" << c.max_span << "-seed" << c.seed;
}

class BucketizerProperty : public ::testing::TestWithParam<BucketizerCase> {};

TEST_P(BucketizerProperty, InvariantsHold) {
  const auto param = GetParam();
  Rng rng(param.seed);
  std::vector<double> samples;
  for (int i = 0; i < 3000; ++i) {
    samples.push_back(rng.LogNormal(8.0, 0.8));
  }
  const Bucketizer bucketizer(samples, param.target_buckets, param.max_span);
  ASSERT_GE(bucketizer.size(), 1u);

  // Populations sum to the sample count; weights sum to 1.
  std::size_t total = 0;
  double weight = 0.0;
  for (const Bucket& b : bucketizer.buckets()) {
    total += b.population;
    weight += b.weight;
    // Every kept bucket is populated.
    EXPECT_GE(b.population, 1u);
    // Representative lies inside the interval.
    EXPECT_GE(b.representative, b.lo - 1e-9);
    EXPECT_LE(b.representative, b.hi + 1e-9);
  }
  EXPECT_EQ(total, samples.size());
  EXPECT_NEAR(weight, 1.0, 1e-9);

  // Full-range coverage: buckets tile [first.lo, last.hi) with no gaps —
  // each bucket's hi is *exactly* the next bucket's lo (empty intervals are
  // absorbed, not dropped), and the tiling spans all samples. A gap here
  // means some delay value routes to a bucket that does not contain it.
  const auto buckets = bucketizer.buckets();
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].lo, buckets[i - 1].hi);
  }
  const auto [min_it, max_it] =
      std::minmax_element(samples.begin(), samples.end());
  EXPECT_EQ(buckets.front().lo, *min_it);
  EXPECT_GE(buckets.back().hi, *max_it);

  // Span constraint (allowing tiny numeric slack): the *member samples* of
  // a bucket span at most max_span. The boundary span b.hi - b.lo may
  // exceed it when the bucket absorbed an adjacent sample-free region —
  // that widening is harmless because no sample sits in the absorbed part.
  std::vector<double> lo_sample(bucketizer.size(), 0.0);
  std::vector<double> hi_sample(bucketizer.size(), 0.0);
  std::vector<bool> seen(bucketizer.size(), false);
  for (double x : samples) {
    const auto idx = bucketizer.BucketIndex(x);
    ASSERT_LT(idx, bucketizer.size());
    if (!seen[idx]) {
      seen[idx] = true;
      lo_sample[idx] = hi_sample[idx] = x;
    } else {
      lo_sample[idx] = std::min(lo_sample[idx], x);
      hi_sample[idx] = std::max(hi_sample[idx], x);
    }
  }
  for (std::size_t i = 0; i < bucketizer.size(); ++i) {
    ASSERT_TRUE(seen[i]);
    EXPECT_LE(hi_sample[i] - lo_sample[i], param.max_span * (1.0 + 1e-9));
  }

  // Every sample maps to a bucket containing it (or the edge buckets).
  for (double x : samples) {
    const auto idx = bucketizer.BucketIndex(x);
    ASSERT_LT(idx, bucketizer.size());
    if (idx > 0 && idx + 1 < bucketizer.size()) {
      EXPECT_GE(x, buckets[idx].lo);
      EXPECT_LT(x, buckets[idx].hi + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BucketizerProperty,
    ::testing::Values(BucketizerCase{4, 1e9, 1}, BucketizerCase{16, 1e9, 2},
                      BucketizerCase{16, 1500.0, 3},
                      BucketizerCase{32, 800.0, 4}, BucketizerCase{1, 1e9, 5},
                      BucketizerCase{64, 400.0, 6}));

TEST(Bucketizer, EqualPopulationWithoutSpanConstraint) {
  Rng rng(9);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back(rng.Uniform(0.0, 1.0));
  const Bucketizer bucketizer(samples, 8, 1e9);
  for (const Bucket& b : bucketizer.buckets()) {
    EXPECT_NEAR(static_cast<double>(b.population), 500.0, 60.0);
  }
}

TEST(Bucketizer, InvalidInputsThrow) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(Bucketizer({}, 4, 1.0), std::invalid_argument);
  EXPECT_THROW(Bucketizer(xs, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(Bucketizer(xs, 4, 0.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Bucketizer(xs, 4, nan), std::invalid_argument);
  EXPECT_THROW(Bucketizer(4, nan), std::invalid_argument);
}

TEST(Bucketizer, IdenticalSamples) {
  const std::vector<double> xs(100, 5.0);
  const Bucketizer bucketizer(xs, 8, 10.0);
  ASSERT_GE(bucketizer.size(), 1u);
  EXPECT_EQ(bucketizer.buckets()[0].population, 100u);
  EXPECT_EQ(bucketizer.BucketIndex(5.0), 0u);
}

// ---- WeightedPercentile ----------------------------------------------------

TEST(WeightedPercentile, SingleSampleReturnsIt) {
  const std::vector<double> v{42.0};
  const std::vector<double> w{3.0};
  for (const double p : {0.0, 10.0, 50.0, 100.0}) {
    EXPECT_DOUBLE_EQ(WeightedPercentile(v, w, p), 42.0) << "p=" << p;
  }
}

TEST(WeightedPercentile, AllTiedReturnsTheValue) {
  const std::vector<double> v{7.0, 7.0, 7.0, 7.0};
  const std::vector<double> w{0.1, 2.0, 0.5, 1.4};
  for (const double p : {0.0, 5.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(WeightedPercentile(v, w, p), 7.0) << "p=" << p;
  }
}

TEST(WeightedPercentile, ZeroWeightEntriesNeverInfluenceResult) {
  proptest::Check("wp-zero-weight-invariance", [](Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 20));
    std::vector<double> values, weights;
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(rng.Uniform(0.0, 100.0));
      weights.push_back(rng.Uniform(0.1, 5.0));
    }
    const double p = rng.Uniform(0.0, 100.0);
    const double base = WeightedPercentile(values, weights, p);
    // Splice zero-weight entries (including extreme values) anywhere.
    std::vector<double> padded_v = values, padded_w = weights;
    padded_v.insert(padded_v.begin(), -1e9);
    padded_w.insert(padded_w.begin(), 0.0);
    padded_v.push_back(1e9);
    padded_w.push_back(0.0);
    EXPECT_DOUBLE_EQ(WeightedPercentile(padded_v, padded_w, p), base);
  });
}

TEST(WeightedPercentile, EqualWeightsMatchStepCdfDefinition) {
  // Inverse-CDF (lower) on equal weights: p in ((k-1)/n, k/n] picks the
  // k-th smallest value.
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(WeightedPercentile(v, w, 25.0), 10.0);
  EXPECT_DOUBLE_EQ(WeightedPercentile(v, w, 26.0), 20.0);
  EXPECT_DOUBLE_EQ(WeightedPercentile(v, w, 50.0), 20.0);
  EXPECT_DOUBLE_EQ(WeightedPercentile(v, w, 75.0), 30.0);
  EXPECT_DOUBLE_EQ(WeightedPercentile(v, w, 100.0), 40.0);
  // p == 0 returns the smallest positive-mass value.
  EXPECT_DOUBLE_EQ(WeightedPercentile(v, w, 0.0), 10.0);
}

TEST(WeightedPercentile, ResultIsAlwaysAnInputValueAndMonotoneInP) {
  proptest::Check("wp-membership-monotone", [](Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 25));
    std::vector<double> values, weights;
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(rng.Uniform(0.0, 1000.0));
      weights.push_back(rng.Uniform(0.0, 1.0) < 0.2 ? 0.0
                                                    : rng.Uniform(0.05, 4.0));
    }
    weights[0] = 1.0;  // Keep total weight positive.
    double prev = -1e300;
    for (const double p : {0.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0}) {
      const double q = WeightedPercentile(values, weights, p);
      EXPECT_NE(std::find(values.begin(), values.end(), q), values.end());
      EXPECT_GE(q, prev) << "p=" << p;
      prev = q;
    }
  });
}

TEST(WeightedPercentile, InvalidInputsThrow) {
  const std::vector<double> v{1.0, 2.0};
  const std::vector<double> w{1.0, 1.0};
  EXPECT_THROW(WeightedPercentile({}, {}, 50.0), std::invalid_argument);
  EXPECT_THROW(WeightedPercentile(v, std::vector<double>{1.0}, 50.0),
               std::invalid_argument);
  EXPECT_THROW(WeightedPercentile(v, w, -1.0), std::invalid_argument);
  EXPECT_THROW(WeightedPercentile(v, w, 101.0), std::invalid_argument);
  EXPECT_THROW(WeightedPercentile(v, std::vector<double>{1.0, -1.0}, 50.0),
               std::invalid_argument);
  EXPECT_THROW(WeightedPercentile(v, std::vector<double>{0.0, 0.0}, 50.0),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(WeightedPercentile(v, w, nan), std::invalid_argument);
  EXPECT_THROW(WeightedPercentile(v, std::vector<double>{1.0, nan}, 50.0),
               std::invalid_argument);
  EXPECT_THROW(WeightedPercentile(std::vector<double>{nan, 2.0}, w, 50.0),
               std::invalid_argument);
}

TEST(WeightedPercentile, ReusedOrderMatchesAStableSortReference) {
  // The reference pools the positive-weight masses, stable-sorts them by
  // value and accumulates in that order. Masses of 1e16 beside masses of 1
  // make the running sum depend on the order equal values are added in,
  // and zero-weight entries sit below every other value, so a result is
  // bit-identical to the reference's only if ties keep their input order
  // and zero weights are skipped. One `order` buffer is reused across
  // every case, at growing and shrinking sizes.
  const auto reference = [](const std::vector<double>& values,
                            const std::vector<double>& weights, double p) {
    double total = 0.0;
    for (const double w : weights) total += w;
    std::vector<std::pair<double, double>> mass;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (weights[i] > 0.0) mass.emplace_back(values[i], weights[i]);
    }
    std::stable_sort(mass.begin(), mass.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    double cumulative = 0.0;
    for (const auto& [value, weight] : mass) {
      cumulative += weight;
      if (cumulative >= p / 100.0 * total) return value;
    }
    return mass.back().first;
  };
  std::vector<std::pair<double, std::size_t>> order;
  proptest::Check("weighted-percentile-reused-order", [&](Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 80));
    std::vector<double> values, weights;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t kind = i == 0 ? 3 : rng.UniformInt(0, 3);
      values.push_back(kind == 0 ? -1.0
                                 : static_cast<double>(rng.UniformInt(0, 4)));
      weights.push_back(kind == 0 ? 0.0 : kind == 1 ? 1e16 : 1.0);
    }
    for (const double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0}) {
      const double expected = reference(values, weights, p);
      EXPECT_EQ(WeightedPercentile(values, weights, p, order), expected)
          << "p=" << p;
      EXPECT_EQ(WeightedPercentile(values, weights, p), expected);
    }
    // `order` holds every positive-weight entry as (value, position),
    // ascending, so equal values sit in input order.
    const auto positive = static_cast<std::size_t>(
        std::count_if(weights.begin(), weights.end(),
                       [](double w) { return w > 0.0; }));
    ASSERT_EQ(order.size(), positive);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    for (const auto& [value, i] : order) {
      ASSERT_LT(i, values.size());
      EXPECT_EQ(value, values[i]);
      EXPECT_GT(weights[i], 0.0);
    }
  });
}

// ---- WeightedJainFairnessIndex ---------------------------------------------

TEST(WeightedJain, MatchesUnweightedOnEqualWeights) {
  proptest::Check("wjain-equal-weights", [](Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 20));
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(rng.Uniform(0.0, 10.0));
    }
    const std::vector<double> weights(n, rng.Uniform(0.5, 3.0));
    EXPECT_NEAR(WeightedJainFairnessIndex(values, weights),
                JainFairnessIndex(values), 1e-12);
  });
}

TEST(WeightedJain, ZeroWeightEntriesNeverInfluenceResult) {
  proptest::Check("wjain-zero-weight-invariance", [](Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 20));
    std::vector<double> values, weights;
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(rng.Uniform(0.0, 10.0));
      weights.push_back(rng.Uniform(0.1, 5.0));
    }
    const double base = WeightedJainFairnessIndex(values, weights);
    std::vector<double> padded_v = values, padded_w = weights;
    padded_v.push_back(1e6);  // Extreme value, zero mass.
    padded_w.push_back(0.0);
    EXPECT_DOUBLE_EQ(WeightedJainFairnessIndex(padded_v, padded_w), base);
  });
}

TEST(WeightedJain, KnownValuesAndInvariances) {
  // Equal values are perfectly fair at any weights.
  EXPECT_DOUBLE_EQ(
      WeightedJainFairnessIndex(std::vector<double>{3.0, 3.0, 3.0},
                                std::vector<double>{1.0, 5.0, 0.25}),
      1.0);
  // Single positive value among n equal weights gives 1/n.
  EXPECT_NEAR(
      WeightedJainFairnessIndex(std::vector<double>{1.0, 0.0, 0.0, 0.0},
                                std::vector<double>{1.0, 1.0, 1.0, 1.0}),
      0.25, 1e-12);
  // All-zero values are trivially fair.
  EXPECT_DOUBLE_EQ(
      WeightedJainFairnessIndex(std::vector<double>{0.0, 0.0},
                                std::vector<double>{1.0, 2.0}),
      1.0);
  // Scale invariance in the values.
  const std::vector<double> v{1.0, 4.0, 2.0};
  const std::vector<double> w{0.5, 1.5, 1.0};
  EXPECT_NEAR(WeightedJainFairnessIndex(v, w),
              WeightedJainFairnessIndex(std::vector<double>{10.0, 40.0, 20.0},
                                        w),
              1e-12);
}

TEST(WeightedJain, InvalidInputsThrow) {
  EXPECT_THROW(WeightedJainFairnessIndex({}, {}), std::invalid_argument);
  EXPECT_THROW(WeightedJainFairnessIndex(std::vector<double>{1.0},
                                         std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(WeightedJainFairnessIndex(std::vector<double>{-1.0},
                                         std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(WeightedJainFairnessIndex(std::vector<double>{1.0},
                                         std::vector<double>{-1.0}),
               std::invalid_argument);
  EXPECT_THROW(WeightedJainFairnessIndex(std::vector<double>{1.0, 2.0},
                                         std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace e2e
