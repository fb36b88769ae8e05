#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/external_delay_model.h"
#include "core/failover.h"
#include "core/policy.h"
#include "core/profiler.h"
#include "core/server_delay_model.h"
#include "core/table_cache.h"
#include "qoe/sigmoid_model.h"
#include "trace/generator.h"
#include "trace/windows.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

// A synthetic replica model with analytically known behaviour: delay mean
// grows linearly with the fraction routed to the replica.
class LinearReplicaModel final : public ServerDelayModel {
 public:
  LinearReplicaModel(int replicas, double base_ms, double slope_ms)
      : replicas_(replicas), base_ms_(base_ms), slope_ms_(slope_ms) {}

  int NumDecisions() const override { return replicas_; }

  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const override {
    const double rps =
        load_fractions[static_cast<std::size_t>(decision)] * total_rps;
    return DiscreteDistribution::PointMass(base_ms_ + slope_ms_ * rps);
  }

  std::string Name() const override { return "linear"; }

 private:
  int replicas_;
  double base_ms_;
  double slope_ms_;
};

// A replica model whose per-decision delay ignores the load split. The
// policy's weight matrix is then bitwise identical across every allocation
// the hill climb evaluates, and only the capacities differ between solves.
class TieredReplicaModel final : public ServerDelayModel {
 public:
  TieredReplicaModel(int replicas, double base_ms, double step_ms)
      : replicas_(replicas), base_ms_(base_ms), step_ms_(step_ms) {}

  int NumDecisions() const override { return replicas_; }

  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double>, double) const override {
    return DiscreteDistribution::PointMass(base_ms_ +
                                           step_ms_ * static_cast<double>(decision));
  }

  std::string Name() const override { return "tiered"; }

 private:
  int replicas_;
  double base_ms_;
  double step_ms_;
};

std::vector<double> SensitiveHeavyExternals(int n, Rng& rng) {
  std::vector<double> externals;
  for (int i = 0; i < n; ++i) {
    const double r = rng.Uniform(0.0, 1.0);
    if (r < 0.25) {
      externals.push_back(rng.Uniform(200.0, 1500.0));
    } else if (r < 0.75) {
      externals.push_back(rng.Uniform(2000.0, 5500.0));
    } else {
      externals.push_back(rng.Uniform(6500.0, 20000.0));
    }
  }
  return externals;
}

// The full-day replay's load profile: 8 levels, 15 rps apart, the last
// one unstable.
LoadProfile ReplayDayProfile() {
  LoadProfile profile;
  profile.max_rps = 120.0;
  for (int level = 1; level <= 8; ++level) {
    profile.level_rps.push_back(15.0 * static_cast<double>(level));
    const double base = 40.0 + 12.0 * static_cast<double>(level);
    profile.delays.emplace_back(
        std::vector<double>{0.6 * base, base, 1.9 * base},
        std::vector<double>{0.25, 0.5, 0.25});
  }
  profile.max_stable_rps = 105.0;
  return profile;
}

// ---- ExternalDelayModel --------------------------------------------------

TEST(ExternalDelayModel, PublishesAfterWindow) {
  ExternalDelayModel model({.window_ms = 1000.0, .min_samples = 3});
  model.Observe(100.0, 0.0);
  model.Observe(200.0, 500.0);
  model.Observe(300.0, 900.0);
  EXPECT_FALSE(model.HasDistribution());
  EXPECT_TRUE(model.MaybeRoll(1000.0));
  ASSERT_TRUE(model.HasDistribution());
  EXPECT_EQ(model.Samples().size(), 3u);
  EXPECT_DOUBLE_EQ(model.PublishedRps(), 3.0);
}

TEST(ExternalDelayModel, SkipsSparseWindows) {
  ExternalDelayModel model({.window_ms = 1000.0, .min_samples = 5});
  model.Observe(100.0, 0.0);
  EXPECT_FALSE(model.MaybeRoll(1500.0));
  EXPECT_FALSE(model.HasDistribution());
  // A dense later window publishes.
  for (int i = 0; i < 6; ++i) {
    model.Observe(100.0 + i, 1600.0 + i * 10.0);
  }
  EXPECT_TRUE(model.MaybeRoll(2600.0));
  EXPECT_EQ(model.Samples().size(), 6u);
}

TEST(ExternalDelayModel, ErrorInjectionBounds) {
  ExternalDelayModel model({});
  model.SetExternalDelayError(0.2);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double est = model.EstimateForRequest(1000.0, rng);
    EXPECT_GE(est, 800.0 - 1e-9);
    EXPECT_LE(est, 1200.0 + 1e-9);
  }
  EXPECT_THROW(model.SetExternalDelayError(-0.1), std::invalid_argument);
  EXPECT_THROW(model.SetRpsError(-0.1), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    EXPECT_THROW(model.SetExternalDelayError(bad), std::invalid_argument);
    EXPECT_THROW(model.SetRpsError(bad), std::invalid_argument);
  }
  // A rejected error leaves the configured one in place.
  const double est = model.EstimateForRequest(1000.0, rng);
  EXPECT_GE(est, 800.0 - 1e-9);
  EXPECT_LE(est, 1200.0 + 1e-9);
  EXPECT_THROW(ExternalDelayModel({.window_ms = nan}), std::invalid_argument);
}

TEST(ExternalDelayModel, NoErrorMeansExact) {
  ExternalDelayModel model({});
  Rng rng(5);
  EXPECT_DOUBLE_EQ(model.EstimateForRequest(1234.0, rng), 1234.0);
}

// ---- Server delay models -------------------------------------------------

TEST(InterpolateProfile, BlendsBetweenLevels) {
  LoadProfile profile;
  profile.max_rps = 100.0;
  profile.level_rps = {50.0, 100.0};
  profile.delays = {DiscreteDistribution::PointMass(10.0),
                    DiscreteDistribution::PointMass(30.0)};
  EXPECT_DOUBLE_EQ(InterpolateProfile(profile, 50.0).Mean(), 10.0);
  EXPECT_DOUBLE_EQ(InterpolateProfile(profile, 75.0).Mean(), 20.0);
  EXPECT_DOUBLE_EQ(InterpolateProfile(profile, 25.0).Mean(), 10.0);
  // Sustained overload adds horizon-bounded backlog delay:
  // 30 + (200/100 - 1) * overload_horizon_ms.
  EXPECT_DOUBLE_EQ(InterpolateProfile(profile, 200.0).Mean(),
                   30.0 + profile.overload_horizon_ms);
}

TEST(InterpolateProfile, UnstableLevelsCapTheStableRegion) {
  LoadProfile profile;
  profile.max_rps = 100.0;
  profile.level_rps = {50.0, 100.0};
  profile.delays = {DiscreteDistribution::PointMass(10.0),
                    DiscreteDistribution::PointMass(30.0)};
  profile.max_stable_rps = 50.0;  // The 100-rps level never stabilized.
  profile.overload_horizon_ms = 1000.0;
  // Beyond the stable cap, delay grows from the cap's distribution.
  EXPECT_DOUBLE_EQ(InterpolateProfile(profile, 50.0).Mean(), 10.0);
  EXPECT_DOUBLE_EQ(InterpolateProfile(profile, 100.0).Mean(),
                   10.0 + 1.0 * 1000.0);
}

TEST(ProfileServerOffline, DetectsUnstableLevels) {
  // Profile far past the server's saturation point: the top levels cannot
  // be stationary, so max_stable_rps must be finite and below max_rps.
  ProfilerConfig config;
  config.concurrency = 2;
  config.base_service_ms = 100.0;  // Saturation ~20/s fully busy.
  config.capacity = 2.0;
  config.levels = 8;
  config.max_rps = 60.0;
  config.duration_ms = 30000.0;
  const LoadProfile profile = ProfileServerOffline(config);
  EXPECT_LT(profile.max_stable_rps, config.max_rps);
  EXPECT_GT(profile.max_stable_rps, 0.0);
}

TEST(ProfiledReplicaModel, DelayGrowsWithFraction) {
  LoadProfile profile;
  profile.max_rps = 100.0;
  for (int i = 1; i <= 10; ++i) {
    profile.level_rps.push_back(i * 10.0);
    profile.delays.push_back(
        DiscreteDistribution::PointMass(10.0 + i * i * 2.0));
  }
  const ProfiledReplicaModel model(3, profile);
  const std::vector<double> even = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  const std::vector<double> skewed = {0.8, 0.1, 0.1};
  const double rps = 150.0;
  EXPECT_GT(model.DelayDistribution(0, skewed, rps).Mean(),
            model.DelayDistribution(0, even, rps).Mean());
  EXPECT_LT(model.DelayDistribution(1, skewed, rps).Mean(),
            model.DelayDistribution(1, even, rps).Mean());
  EXPECT_THROW(model.DelayDistribution(3, even, rps), std::out_of_range);
  const std::vector<double> wrong_size = {0.5, 0.5};
  EXPECT_THROW(model.DelayDistribution(0, wrong_size, rps),
               std::invalid_argument);
}

TEST(ProfiledReplicaModel, IsOverloadedRejectsAMissizedSplit) {
  // Decision 2 of a two-entry split would be read past its end.
  const ProfiledReplicaModel g(3, ReplayDayProfile());
  const std::vector<double> short_split = {0.5, 0.5};
  const std::vector<double> long_split = {0.25, 0.25, 0.25, 0.25};
  for (const auto& split : {short_split, long_split}) {
    EXPECT_THROW(g.IsOverloaded(2, split, 100.0), std::invalid_argument);
    EXPECT_THROW(g.DelayDistribution(2, split, 100.0), std::invalid_argument);
  }
  const std::vector<double> thirds(3, 1.0 / 3.0);
  EXPECT_FALSE(g.IsOverloaded(2, thirds, 30.0));
  EXPECT_TRUE(g.IsOverloaded(2, thirds, 600.0));
}

TEST(ProfiledReplicaModel, FlatUpToHoldsExactlyUpToTheFirstLevelAndStableCap) {
  LoadProfile profile;
  profile.max_rps = 20.0;
  profile.level_rps = {10.0, 20.0};
  profile.delays = {DiscreteDistribution({20.0, 50.0}, {0.5, 0.5}),
                    DiscreteDistribution({40.0, 90.0}, {0.5, 0.5})};
  const ProfiledReplicaModel stable(3, profile);
  const std::vector<double> all_to_one = {1.0, 0.0, 0.0};
  // Up to the first level every replica gets its distribution, at any split.
  EXPECT_TRUE(stable.FlatUpTo(0.0));
  EXPECT_TRUE(stable.FlatUpTo(10.0));
  for (int d = 0; d < 3; ++d) {
    std::vector<double> split(3, 0.0);
    split[static_cast<std::size_t>(d)] = 1.0;  // All of the load on d.
    const DiscreteDistribution at_cap =
        stable.DelayDistribution(d, split, 10.0);
    EXPECT_TRUE(std::equal(at_cap.values().begin(), at_cap.values().end(),
                           profile.delays.front().values().begin()));
    EXPECT_FALSE(stable.IsOverloaded(d, split, 10.0));
  }
  EXPECT_FALSE(stable.FlatUpTo(std::nextafter(10.0, 20.0)));
  EXPECT_FALSE(stable.FlatUpTo(15.0));
  EXPECT_FALSE(stable.FlatUpTo(std::numeric_limits<double>::quiet_NaN()));

  // A stable cap below the first level bounds the query: above it the
  // distribution is still the first level's, but the replica is overloaded.
  profile.max_stable_rps = 6.0;
  const ProfiledReplicaModel capped(3, profile);
  EXPECT_TRUE(capped.FlatUpTo(6.0));
  EXPECT_FALSE(capped.IsOverloaded(0, all_to_one, 6.0));
  EXPECT_FALSE(capped.FlatUpTo(std::nextafter(6.0, 10.0)));
  EXPECT_FALSE(capped.FlatUpTo(8.0));
  EXPECT_EQ(capped.DelayDistribution(0, all_to_one, 8.0).Mean(),
            profile.delays.front().Mean());
  EXPECT_TRUE(capped.IsOverloaded(0, all_to_one, 8.0));

  // Models and decorators that do not answer the query say false.
  EXPECT_FALSE(PriorityQueueModel(3, 5.0, 1).FlatUpTo(0.0));
  const std::vector<double> no_penalty = {0.0, 0.0, 0.0};
  EXPECT_FALSE(PenalizedServerModel(stable, no_penalty).FlatUpTo(0.0));
}

TEST(ProfileServerOffline, ProducesMonotoneCongestionCurve) {
  ProfilerConfig config;
  config.levels = 6;
  config.max_rps = 120.0;
  config.duration_ms = 20000.0;
  const LoadProfile profile = ProfileServerOffline(config);
  ASSERT_EQ(profile.level_rps.size(), 6u);
  // Delay at the highest load clearly exceeds delay at the lowest.
  EXPECT_GT(profile.delays.back().Mean(), profile.delays.front().Mean() * 2.0);
  // Levels ascend.
  for (std::size_t i = 1; i < profile.level_rps.size(); ++i) {
    EXPECT_GT(profile.level_rps[i], profile.level_rps[i - 1]);
  }
}

TEST(PriorityQueueModel, HigherPriorityWaitsLess) {
  const PriorityQueueModel model(4, 5.0, 1);
  const std::vector<double> even = {0.25, 0.25, 0.25, 0.25};
  const double rps = 150.0;  // Capacity is 200/s.
  double prev = 0.0;
  for (int p = 0; p < 4; ++p) {
    const double wait = model.MeanWaitMs(p, even, rps);
    EXPECT_GT(wait, prev);
    prev = wait;
  }
}

TEST(PriorityQueueModel, WaitGrowsWithLoad) {
  const PriorityQueueModel model(2, 5.0, 1);
  const std::vector<double> even = {0.5, 0.5};
  EXPECT_LT(model.MeanWaitMs(1, even, 50.0), model.MeanWaitMs(1, even, 180.0));
}

TEST(PriorityQueueModel, OverloadIsClampedNotInfinite) {
  const PriorityQueueModel model(2, 5.0, 1, 0.5, 10000.0);
  const std::vector<double> even = {0.5, 0.5};
  const double wait = model.MeanWaitMs(1, even, 500.0);  // 2.5x capacity.
  EXPECT_LE(wait, 10000.0);
  EXPECT_GT(wait, 1000.0);
}

TEST(PriorityQueueModel, IsOverloadedRejectsAMissizedSplit) {
  // Decision 7 sums the shares of levels 0..7, past the end of a short
  // split; the model throws as DelayDistribution does instead of reading it.
  const PriorityQueueModel g(8, 5.0, 1);
  const std::vector<double> short_split = {0.5, 0.5};
  const std::vector<double> long_split(9, 1.0 / 9.0);
  for (const auto& split : {short_split, long_split}) {
    EXPECT_THROW(g.IsOverloaded(7, split, 100.0), std::invalid_argument);
    EXPECT_THROW(g.DelayDistribution(7, split, 100.0), std::invalid_argument);
  }
  const std::vector<double> eighths(8, 0.125);
  EXPECT_FALSE(g.IsOverloaded(7, eighths, 100.0));
  EXPECT_TRUE(g.IsOverloaded(7, eighths, 1000.0));
}

TEST(PriorityQueueModel, DistributionIsRightSkewedAroundMean) {
  const PriorityQueueModel model(2, 5.0, 1);
  const std::vector<double> even = {0.5, 0.5};
  const auto dist = model.DelayDistribution(0, even, 100.0);
  const double mean_wait = model.MeanWaitMs(0, even, 100.0);
  EXPECT_NEAR(dist.Mean(), mean_wait + 0.5, mean_wait * 0.25 + 1.0);
  EXPECT_GT(dist.values().back(), dist.Mean());
}

// ---- Policy ----------------------------------------------------------------

TEST(DecisionTable, LookupClampsAndSearches) {
  DecisionTable table;
  table.rows = {{.lo = 0.0, .hi = 10.0, .decision = 0},
                {.lo = 10.0, .hi = 20.0, .decision = 1},
                {.lo = 20.0, .hi = 30.0, .decision = 2}};
  EXPECT_EQ(table.Lookup(-5.0), 0);
  EXPECT_EQ(table.Lookup(15.0), 1);
  EXPECT_EQ(table.Lookup(100.0), 2);
  EXPECT_THROW(DecisionTable{}.Lookup(1.0), std::logic_error);
}

TEST(ComputePolicy, ValidatesInputs) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(3, 50.0, 10.0);
  EXPECT_THROW(
      ComputePolicy(qoe, g, std::span<const DelayMs>{}, 100.0, PolicyConfig{}),
               std::invalid_argument);
  const std::vector<double> externals = {1000.0, 2000.0};
  EXPECT_THROW(ComputePolicy(qoe, g, externals, 0.0, PolicyConfig{}),
               std::invalid_argument);
  // A G with no decision has no allocation to climb from.
  const LinearReplicaModel empty(0, 50.0, 10.0);
  EXPECT_THROW(ComputePolicy(qoe, empty, externals, 100.0, PolicyConfig{}),
               std::invalid_argument);

  // A rate or penalty no plan can use is rejected by name. On a profiled G
  // a NaN rate used to plan as if at zero load and +inf as all-overloaded,
  // and a NaN penalty failed its `> 0.0` test and was dropped.
  LoadProfile profile;
  profile.max_rps = 100.0;
  for (int i = 1; i <= 10; ++i) {
    profile.level_rps.push_back(i * 10.0);
    profile.delays.push_back(
        DiscreteDistribution::PointMass(10.0 + i * i * 2.0));
  }
  const ProfiledReplicaModel profiled(3, profile);
  Rng rng(4);
  const auto delays = SensitiveHeavyExternals(200, rng);
  const auto expect_rejected = [&](double rps, const PolicyConfig& config,
                                   const std::string& name) {
    try {
      ComputePolicy(qoe, profiled, delays, rps, config);
      ADD_FAILURE() << "expected std::invalid_argument naming " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double rps : {kNan, kInf, -kInf, -1.0}) {
    expect_rejected(rps, PolicyConfig{}, "total_rps");
  }
  for (const double penalty : {kNan, kInf, -0.1}) {
    PolicyConfig config;
    config.instability_penalty = penalty;
    expect_rejected(50.0, config, "instability_penalty");
  }
  // The boundary values stay valid.
  PolicyConfig no_penalty;
  no_penalty.instability_penalty = 0.0;
  EXPECT_NO_THROW(ComputePolicy(qoe, profiled, delays, 50.0, no_penalty));
}

TEST(ComputePolicy, SpreadsLoadAcrossReplicasUnderPressure) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  // Steep congestion: concentrating load is very costly.
  const LinearReplicaModel g(3, 50.0, 40.0);
  Rng rng(3);
  const auto externals = SensitiveHeavyExternals(600, rng);
  PolicyConfig config;
  config.target_buckets = 12;
  const auto result = ComputePolicy(qoe, g, externals, 60.0, config);
  // The hill climb must have moved off the degenerate (all, 0, 0) start.
  int used = 0;
  for (double f : result.table.load_fractions) {
    if (f > 0.0) ++used;
  }
  EXPECT_GE(used, 2);
  EXPECT_GT(result.stats.hill_climb_steps, 0);
  // Fractions sum to one.
  double total = 0.0;
  for (double f : result.table.load_fractions) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Rows cover the whole external range in order.
  for (std::size_t i = 1; i < result.table.rows.size(); ++i) {
    EXPECT_GE(result.table.rows[i].lo, result.table.rows[i - 1].lo);
  }
}

TEST(ComputePolicy, SensitiveRequestsGetFasterDecisions) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(2, 30.0, 25.0);
  Rng rng(4);
  const auto externals = SensitiveHeavyExternals(600, rng);
  PolicyConfig config;
  config.target_buckets = 16;
  const auto result = ComputePolicy(qoe, g, externals, 50.0, config);
  const DecisionTable& table = result.table;
  // Identify each decision's mean delay under the final fractions.
  std::vector<double> mean_delay;
  for (int d = 0; d < 2; ++d) {
    mean_delay.push_back(
        g.DelayDistribution(d, table.load_fractions, 50.0).Mean());
  }
  // A mid-region (sensitive) request's decision should not be slower than
  // a far-tail (insensitive) request's decision.
  const int mid = table.Lookup(3500.0);
  const int tail = table.Lookup(19000.0);
  EXPECT_LE(mean_delay[static_cast<std::size_t>(mid)],
            mean_delay[static_cast<std::size_t>(tail)] + 1e-9);
}

TEST(ComputePolicy, OptimalMatchingBeatsSlopeMapping) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(3, 40.0, 30.0);
  Rng rng(5);
  const auto externals = SensitiveHeavyExternals(800, rng);
  PolicyConfig config;
  config.target_buckets = 16;
  const auto e2e_result = ComputePolicy(qoe, g, externals, 70.0, config);
  config.mapping = MappingAlgorithm::kSlopeBased;
  const auto slope_result = ComputePolicy(qoe, g, externals, 70.0, config);
  EXPECT_GE(e2e_result.table.objective_value,
            slope_result.table.objective_value - 1e-9);
}

TEST(ComputePolicy, PerRequestModeUsesOneBucketPerRequest) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(2, 30.0, 10.0);
  const std::vector<double> externals = {500.0, 2500.0, 4000.0, 9000.0};
  PolicyConfig config;
  config.per_request = true;
  const auto result = ComputePolicy(qoe, g, externals, 10.0, config);
  EXPECT_EQ(result.stats.buckets, 4);
  EXPECT_EQ(result.table.rows.size(), 4u);
}

TEST(ComputePolicy, BucketCountRespectsSpatialCoarsening) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(2, 30.0, 10.0);
  Rng rng(6);
  const auto externals = SensitiveHeavyExternals(2000, rng);
  PolicyConfig config;
  config.target_buckets = 8;
  config.max_bucket_span_ms = 1e9;  // No span splitting.
  const auto result = ComputePolicy(qoe, g, externals, 100.0, config);
  EXPECT_LE(result.stats.buckets, 9);
}

TEST(ComputePolicy, HillClimbImprovesOverDegenerateStart) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(3, 50.0, 60.0);
  Rng rng(7);
  const auto externals = SensitiveHeavyExternals(500, rng);
  PolicyConfig config;
  config.target_buckets = 12;
  config.max_hill_climb_steps = 0;  // Degenerate allocation only.
  const auto degenerate = ComputePolicy(qoe, g, externals, 80.0, config);
  config.max_hill_climb_steps = 512;
  const auto climbed = ComputePolicy(qoe, g, externals, 80.0, config);
  EXPECT_GT(climbed.table.objective_value,
            degenerate.table.objective_value);
}


TEST(ComputePolicy, DecisionsInvariantUnderQoeScaling) {
  // Scaling the QoE curve (units change: seconds of engagement vs hours)
  // must not change any decision: matching totals, hill-climb comparisons,
  // and the instability penalty all scale together.
  const auto base = std::make_shared<const SigmoidQoeModel>(
      SigmoidQoeModel::TraceTimeOnSite());
  const NormalizedQoeModel scaled(base, 0.0, 0.25);  // 4x the base curve.
  const LinearReplicaModel g(3, 40.0, 30.0);
  Rng rng(23);
  const auto externals = SensitiveHeavyExternals(500, rng);
  PolicyConfig config;
  config.target_buckets = 12;
  const auto a = ComputePolicy(*base, g, externals, 70.0, config);
  const auto b = ComputePolicy(scaled, g, externals, 70.0, config);
  ASSERT_EQ(a.table.rows.size(), b.table.rows.size());
  for (std::size_t i = 0; i < a.table.rows.size(); ++i) {
    EXPECT_EQ(a.table.rows[i].decision, b.table.rows[i].decision)
        << "row " << i;
  }
  EXPECT_NEAR(b.table.objective_value, a.table.objective_value * 4.0,
              1e-6);
}

TEST(ComputePolicy, SlopePolicySetsMappingAlgorithm) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(2, 40.0, 30.0);
  Rng rng(29);
  const auto externals = SensitiveHeavyExternals(300, rng);
  PolicyConfig config;
  config.target_buckets = 8;
  config.mapping = MappingAlgorithm::kSlopeBased;
  const auto result = ComputePolicy(qoe, g, externals, 50.0, config);
  EXPECT_FALSE(result.table.rows.empty());
  EXPECT_EQ(result.stats.matchings_solved, 0);  // Slope mapping, no solver.
  EXPECT_EQ(result.stats.transport_solves, 0);
}

// Exact (bitwise) equality of two policy results: rows, fractions, score.
void ExpectIdenticalResults(const PolicyResult& a, const PolicyResult& b) {
  ASSERT_EQ(a.table.rows.size(), b.table.rows.size());
  for (std::size_t i = 0; i < a.table.rows.size(); ++i) {
    EXPECT_EQ(a.table.rows[i].lo, b.table.rows[i].lo) << "row " << i;
    EXPECT_EQ(a.table.rows[i].hi, b.table.rows[i].hi) << "row " << i;
    EXPECT_EQ(a.table.rows[i].decision, b.table.rows[i].decision)
        << "row " << i;
    EXPECT_EQ(a.table.rows[i].expected_qoe, b.table.rows[i].expected_qoe)
        << "row " << i;
    EXPECT_EQ(a.table.rows[i].weight, b.table.rows[i].weight) << "row " << i;
  }
  EXPECT_EQ(a.table.load_fractions, b.table.load_fractions);
  EXPECT_EQ(a.table.objective_value, b.table.objective_value);
  EXPECT_EQ(a.stats.buckets, b.stats.buckets);
  EXPECT_EQ(a.stats.hill_climb_steps, b.stats.hill_climb_steps);
  EXPECT_EQ(a.stats.allocations_evaluated, b.stats.allocations_evaluated);
}

TEST(ComputePolicy, PerRequestDuplicateDelaysCollapseIntoOneBucket) {
  // Regression: per-request mode used to emit one zero-width [x, x) row per
  // duplicate delay. Lookup (lower-edge binary search) then routed *all*
  // duplicates to the last such row, so the traffic the table actually
  // moved diverged from the planned load_fractions.
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(2, 30.0, 10.0);
  const std::vector<double> externals = {500.0,  500.0,  500.0, 500.0,
                                         2500.0, 2500.0, 9000.0, 9000.0};
  PolicyConfig config;
  config.per_request = true;
  const auto result = ComputePolicy(qoe, g, externals, 10.0, config);
  // Three distinct delays -> three buckets with summed weights.
  EXPECT_EQ(result.stats.buckets, 3);
  ASSERT_EQ(result.table.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(result.table.rows[0].weight, 0.5);
  EXPECT_DOUBLE_EQ(result.table.rows[1].weight, 0.25);
  EXPECT_DOUBLE_EQ(result.table.rows[2].weight, 0.25);
  // Rows tile the delay range: no zero-width intervals, no gaps.
  for (std::size_t i = 0; i < result.table.rows.size(); ++i) {
    EXPECT_LT(result.table.rows[i].lo, result.table.rows[i].hi) << i;
    if (i > 0) {
      EXPECT_EQ(result.table.rows[i].lo, result.table.rows[i - 1].hi) << i;
    }
  }
  // The split the table produces when every request is looked up must be
  // exactly the split the plan promised.
  std::vector<double> applied(2, 0.0);
  for (const double c : externals) {
    applied[static_cast<std::size_t>(result.table.Lookup(c))] +=
        1.0 / static_cast<double>(externals.size());
  }
  ASSERT_EQ(result.table.load_fractions.size(), applied.size());
  for (std::size_t d = 0; d < applied.size(); ++d) {
    EXPECT_NEAR(applied[d], result.table.load_fractions[d], 1e-12) << d;
  }
}

TEST(ComputePolicy, TransportationMatchesHungarianByteForByte) {
  // The collapsed n×D transportation solve must reproduce the expanded
  // Hungarian mapping bit-for-bit on a realistic scenario — not just the
  // same objective, the same table bytes.
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(3, 40.0, 30.0);
  Rng rng(31);
  const auto externals = SensitiveHeavyExternals(600, rng);
  PolicyConfig config;
  config.target_buckets = 16;
  config.mapping = MappingAlgorithm::kTransportation;
  const auto fast = ComputePolicy(qoe, g, externals, 70.0, config);
  config.mapping = MappingAlgorithm::kOptimalMatching;
  const auto reference = ComputePolicy(qoe, g, externals, 70.0, config);
  ExpectIdenticalResults(fast, reference);
  EXPECT_GT(fast.stats.transport_solves, 0);
  EXPECT_EQ(fast.stats.matchings_solved, 0);
  EXPECT_GT(reference.stats.matchings_solved, 0);
  EXPECT_EQ(reference.stats.transport_solves, 0);
  // Both count one solve per evaluated allocation refinement round.
  EXPECT_EQ(fast.stats.transport_solves, reference.stats.matchings_solved);
}

TEST(ComputePolicy, TieredModelMatchesHungarianByteForByte) {
  // With a fraction-insensitive delay model the weight matrix is bitwise
  // identical across every allocation and only the capacities differ
  // between solves — the regime a warm-started re-solve would target. No
  // such path exists: every transportation solve is cold, so
  // warm_resolves reads 0, and the table must still equal the expanded
  // Hungarian reference byte for byte, with matching per-allocation solve
  // telemetry.
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const TieredReplicaModel g(3, 60.0, 500.0);
  Rng rng(41);
  const auto externals = SensitiveHeavyExternals(400, rng);
  PolicyConfig config;
  config.target_buckets = 12;
  config.mapping = MappingAlgorithm::kTransportation;
  const auto fast = ComputePolicy(qoe, g, externals, 50.0, config);
  // The climb solves the shared matrix more than once, so the regime is
  // exercised, and none of those solves is counted as warm.
  EXPECT_GT(fast.stats.transport_solves, 1);
  EXPECT_EQ(fast.stats.warm_resolves, 0);
  EXPECT_LE(fast.stats.warm_resolves, fast.stats.transport_solves);
  config.mapping = MappingAlgorithm::kOptimalMatching;
  const auto reference = ComputePolicy(qoe, g, externals, 50.0, config);
  ExpectIdenticalResults(fast, reference);
  // One transport solve per Hungarian solve, exactly.
  EXPECT_EQ(fast.stats.transport_solves, reference.stats.matchings_solved);
  // And the solve accounting itself is reproducible.
  config.mapping = MappingAlgorithm::kTransportation;
  const auto again = ComputePolicy(qoe, g, externals, 50.0, config);
  ExpectIdenticalResults(fast, again);
  EXPECT_EQ(fast.stats.transport_solves, again.stats.transport_solves);
  EXPECT_EQ(fast.stats.warm_resolves, again.stats.warm_resolves);
}

TEST(ComputePolicy, RejectsParallelWorkersOtherThanOne) {
  // Every policy solve runs on its caller's thread; the vestigial knob
  // accepts only 1 rather than silently ignoring a request for threads.
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearReplicaModel g(2, 40.0, 30.0);
  const std::vector<double> externals = {500.0, 2500.0, 4000.0, 9000.0};
  PolicyConfig config;
  EXPECT_NO_THROW(ComputePolicy(qoe, g, externals, 50.0, config));
  for (const int workers : {0, 3}) {
    config.parallel_workers = workers;
    EXPECT_THROW(ComputePolicy(qoe, g, externals, 50.0, config),
                 std::invalid_argument)
        << "workers " << workers;
  }
}

// Counts DelayDistribution calls into a base model (serial use only).
class CountingServerModel final : public ServerDelayModel {
 public:
  explicit CountingServerModel(const ServerDelayModel& base) : base_(base) {}

  int NumDecisions() const override { return base_.NumDecisions(); }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const override {
    ++calls_;
    return base_.DelayDistribution(decision, load_fractions, total_rps);
  }
  std::string Name() const override { return base_.Name(); }
  bool IsOverloaded(int decision, std::span<const double> load_fractions,
                    double total_rps) const override {
    return base_.IsOverloaded(decision, load_fractions, total_rps);
  }

  int calls() const { return calls_; }

 private:
  const ServerDelayModel& base_;
  mutable int calls_ = 0;
};

TEST(ComputePolicy, ConvergedEvaluationsScoreFromTheSolvesOwnG) {
  // 16 distinct delays in per-request mode make 16 buckets of weight 1/16,
  // so every split is an exact binary fraction: each evaluation's first
  // solve creates bitwise the split it ran at, and the refine loop stops
  // with moved == 0. Scoring must then reuse that solve's G outputs — D
  // calls per transport solve and not one more.
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const PriorityQueueModel broker(4, 5.0, 1);
  const CountingServerModel g(broker);
  std::vector<double> externals;
  for (int i = 0; i < 16; ++i) {
    externals.push_back(300.0 + 450.0 * static_cast<double>(i));
  }
  PolicyConfig config;
  config.per_request = true;
  const auto result = ComputePolicy(qoe, g, externals, 150.0, config);
  EXPECT_EQ(result.stats.buckets, 16);
  EXPECT_GT(result.stats.hill_climb_steps, 0);
  // One solve per evaluation: the seed split was already the fixed point.
  EXPECT_EQ(result.stats.transport_solves,
            result.stats.allocations_evaluated);
  EXPECT_EQ(g.calls(), g.NumDecisions() * result.stats.transport_solves);
  // Counting changes nothing the policy computes.
  ExpectIdenticalResults(result,
                         ComputePolicy(qoe, broker, externals, 150.0, config));
}

TEST(ComputePolicy, FlatModelSolvesEachEvaluationOnce) {
  // The full-day replay's G: three replicas sharing an 8-level profile whose
  // first level is 15 rps. Planned at 6 rps, no replica passes that level at
  // any split, so G hands every decision the first level's distribution and
  // its columns never move with the split. The max-span rule cuts the sparse
  // tail into light buckets, so an evaluation's weight split differs from
  // its unit split and the refine loop runs a round; that round finds G's
  // columns unchanged and keeps the mapping instead of solving it again.
  const ProfiledReplicaModel g(3, ReplayDayProfile());
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  Rng rng(43);
  const auto externals = SensitiveHeavyExternals(300, rng);
  PolicyConfig config;
  const auto refined = ComputePolicy(qoe, g, externals, 6.0, config);
  // The degenerate start's neighbour (n − 1, 1, 0) routes the last bucket
  // alone, so its refine runs when that bucket's weight is 0.01 or more from
  // a unit share.
  const std::size_t n = refined.table.rows.size();
  ASSERT_GT(n, 1u);
  EXPECT_GE(std::abs(refined.table.rows.back().weight -
                     1.0 / static_cast<double>(n)),
            0.01);
  EXPECT_EQ(refined.stats.transport_solves,
            refined.stats.allocations_evaluated);
  // Keeping the mapping changes no byte of the table.
  config.refine_fractions = false;
  const auto unrefined = ComputePolicy(qoe, g, externals, 6.0, config);
  ExpectIdenticalResults(refined, unrefined);
}

TEST(ComputePolicy, FlatModelRoutesEveryBucketToDecisionZero) {
  // Planned at 6 rps, no replica of the full-day replay's G passes its
  // 15-rps first level under any split: every decision serves the same
  // delays, every allocation scores the same, and the degenerate start
  // wins whatever the objective, mapping or bucketing. The sharded replay
  // charges such a group without solving it on exactly this table.
  const ProfiledReplicaModel g(3, ReplayDayProfile());
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  Rng rng(43);
  const auto externals = SensitiveHeavyExternals(40, rng);
  const std::vector<double> all_to_zero = {1.0, 0.0, 0.0};
  for (const ObjectiveKind kind :
       {ObjectiveKind::kMeanQoe, ObjectiveKind::kTailPercentile,
        ObjectiveKind::kMeanMinusStdev,
        ObjectiveKind::kFairnessConstrainedMean}) {
    for (const MappingAlgorithm mapping :
         {MappingAlgorithm::kTransportation,
          MappingAlgorithm::kOptimalMatching, MappingAlgorithm::kSlopeBased}) {
      for (const bool per_request : {false, true}) {
        PolicyConfig config;
        config.objective.kind = kind;
        config.mapping = mapping;
        config.per_request = per_request;
        const std::string context =
            ToString(kind) + " mapping " +
            std::to_string(static_cast<int>(mapping)) + " per_request " +
            std::to_string(per_request);
        const PolicyResult result =
            ComputePolicy(qoe, g, externals, 6.0, config);
        double total = 0.0;
        for (const DecisionTableRow& row : result.table.rows) {
          EXPECT_EQ(row.decision, 0) << context;
          total += row.weight;
        }
        EXPECT_EQ(result.table.load_fractions,
                  (std::vector<double>{total, 0.0, 0.0}))
            << context;
        EXPECT_EQ(g.DelayDistribution(0, result.table.load_fractions, 6.0)
                      .Mean(),
                  g.DelayDistribution(0, all_to_zero, 6.0).Mean())
            << context;
      }
    }
  }
  // Past the first level the same externals do spread.
  const PolicyResult loaded =
      ComputePolicy(qoe, g, externals, 60.0, PolicyConfig{});
  EXPECT_GT(loaded.table.load_fractions[0], 0.0);
  EXPECT_LT(loaded.table.load_fractions[0], 1.0);
}

// Pools of 1, 2, 4 and 7 workers. One worker starts no thread; 7 is more
// than most hosts' cores, so workers also queue for a core.
std::vector<std::unique_ptr<ThreadPool>> TestPools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const int workers : {1, 2, 4, 7}) {
    pools.push_back(std::make_unique<ThreadPool>(workers));
  }
  return pools;
}

TEST(ComputePolicy, BrokerWindowGoldenLock) {
  // The live controller's D = 8 recompute, pinned bit for bit: the 8-level
  // broker G (one 5 ms consumer) at 16 target buckets, over page type 1's
  // 16:00-16:10 window of a seed-20190819, 0.1-scale day, planned at
  // 160 rps (utilization 0.8). Any change to the evaluation path that moves
  // a table byte or the search's work fails here. The same bytes come
  // back when the climb rounds' solves run on a pool of any size.
  TraceGenParams params;
  params.seed = 20190819;
  params.scale = 0.1;
  const Trace trace = TraceGenerator(params).Generate();
  const auto groups = GroupByWindow(trace.records, 600000.0);
  std::vector<double> externals;
  for (const TraceRecord& r : groups.at(WindowKey{PageType::kType1, 16 * 6})) {
    externals.push_back(r.external_delay_ms);
  }
  ASSERT_EQ(externals.size(), 679u);

  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const PriorityQueueModel g(8, 5.0, 1);
  PolicyConfig config;
  config.target_buckets = 16;
  const DecisionTableRow kRows[] = {
      {0x1.9e859bc1cbc9fp+7, 0x1.dc441548da39bp+9, 3,
       0x1.e0b9ae05d9d41p-1, 0x1.fab8be054742p-5},
      {0x1.dc441548da39bp+9, 0x1.525e495a2c38bp+10, 2,
       0x1.d803c16e2bb86p-1, 0x1.fab8be054742p-5},
      {0x1.525e495a2c38bp+10, 0x1.87ab48b1c9e5p+10, 2,
       0x1.ce36de2a8f054p-1, 0x1.0364aa6a5231p-4},
      {0x1.87ab48b1c9e5p+10, 0x1.c8bdb2ab86e93p+10, 1,
       0x1.c3cafb65d9ce9p-1, 0x1.fab8be054742p-5},
      {0x1.c8bdb2ab86e93p+10, 0x1.0a3c2133f287p+11, 1,
       0x1.b166cb9ba123cp-1, 0x1.0364aa6a5231p-4},
      {0x1.0a3c2133f287p+11, 0x1.3c421f2be05dcp+11, 0,
       0x1.931f5cc425edbp-1, 0x1.fab8be054742p-5},
      {0x1.3c421f2be05dcp+11, 0x1.6c31f4ad26d94p+11, 0,
       0x1.62d1824b80defp-1, 0x1.0364aa6a5231p-4},
      {0x1.6c31f4ad26d94p+11, 0x1.941a9c7322ba3p+11, 0,
       0x1.341158503a596p-1, 0x1.fab8be054742p-5},
      {0x1.941a9c7322ba3p+11, 0x1.cdb8b585b1c99p+11, 0,
       0x1.faaf4cc22be0dp-2, 0x1.fab8be054742p-5},
      {0x1.cdb8b585b1c99p+11, 0x1.ffdcbc09322bfp+11, 0,
       0x1.8279a7ca8bc4dp-2, 0x1.0364aa6a5231p-4},
      {0x1.ffdcbc09322bfp+11, 0x1.28234288842e8p+12, 1,
       0x1.2ffd804c59738p-2, 0x1.fab8be054742p-5},
      {0x1.28234288842e8p+12, 0x1.538ccf6e792d2p+12, 2,
       0x1.eeadd6553363ap-3, 0x1.0364aa6a5231p-4},
      {0x1.538ccf6e792d2p+12, 0x1.97069689a01a9p+12, 3,
       0x1.b320850dae49ep-3, 0x1.fab8be054742p-5},
      {0x1.97069689a01a9p+12, 0x1.e004f091515a4p+12, 4,
       0x1.9201b771839a5p-3, 0x1.0364aa6a5231p-4},
      {0x1.e004f091515a4p+12, 0x1.09ed12827e822p+13, 4,
       0x1.7bf6d7c3c7b33p-3, 0x1.e29790668d01ep-6},
      {0x1.09ed12827e822p+13, 0x1.23d7acbc54573p+13, 4,
       0x1.6b2805f24deb9p-3, 0x1.218e2370bb012p-6},
      {0x1.23d7acbc54573p+13, 0x1.3dc246f62a2c3p+13, 4,
       0x1.55e7647d45faep-3, 0x1.e29790668d01ep-7},
      {0x1.3dc246f62a2c3p+13, 0x1.63140dff16523p+13, 4,
       0x1.3cd3085129f3bp-3, 0x1.69f1ac4ce9c17p-6},
      {0x1.63140dff16523p+13, 0x1.8865d50802782p+13, 4,
       0x1.222b67f95610cp-3, 0x1.218e2370bb012p-8},
      {0x1.8865d50802782p+13, 0x1.adb79c10ee9e2p+13, 4,
       0x1.09d888dfa99e1p-3, 0x1.8212d9eba4018p-8},
      {0x1.adb79c10ee9e2p+13, 0x1.d3096319dac42p+13, 5,
       0x1.cec4768bd634fp-4, 0x1.218e2370bb012p-8},
      {0x1.d3096319dac42p+13, 0x1.f85b2a22c6ea2p+13, 6,
       0x1.a30ba4bf66408p-4, 0x1.8212d9eba4018p-10},
      {0x1.f85b2a22c6ea2p+13, 0x1.0ed67895d9881p+14, 5,
       0x1.79c59778395b2p-4, 0x1.8212d9eba4018p-9},
      {0x1.0ed67895d9881p+14, 0x1.217f5c1a4f9bp+14, 5,
       0x1.56e1ad208a9fap-4, 0x1.8212d9eba4018p-8},
      {0x1.217f5c1a4f9bp+14, 0x1.34283f9ec5aep+14, 6,
       0x1.2d2f10a31d842p-4, 0x1.8212d9eba4018p-9},
      {0x1.34283f9ec5aep+14, 0x1.46d123233bc1p+14, 6,
       0x1.206ae830c0aep-4, 0x1.218e2370bb012p-8},
      {0x1.46d123233bc1p+14, 0x1.b6c6783e0033p+14, 6,
       0x1.0fc50ed9eb9b6p-4, 0x1.8212d9eba4018p-10},
      {0x1.b6c6783e0033p+14, 0x1.c96f5bc27646p+14, 7,
       0x1.b4795092bfbcap-5, 0x1.8212d9eba4018p-10},
      {0x1.c96f5bc27646p+14, 0x1.0a0974ea2748fp+15, 7,
       0x1.aae6e00a858a3p-5, 0x1.8212d9eba4018p-10},
      {0x1.0a0974ea2748fp+15, 0x1.10f764d68932fp+16, 7,
       0x1.9eb40c7db0024p-5, 0x1.8212d9eba4018p-10},
      {0x1.10f764d68932fp+16, 0x1.2cf4ba1d3a4f6p+16, 7,
       0x1.9999ef33b32fcp-5, 0x1.8212d9eba4018p-10},
      {0x1.2cf4ba1d3a4f6p+16, 0x1.319ef2fe57d42p+16, 7,
       0x1.9999a5928f52p-5, 0x1.8212d9eba4018p-10},
  };
  const std::vector<double> kLoadFractions = {
      0x1.3fb79c7723d14p-2, 0x1.7f0eb437ccb98p-3, 0x1.8212d9eba4018p-3,
      0x1.fab8be054742p-4, 0x1.42bbc22afb195p-3, 0x1.b25535291881bp-7,
      0x1.51d07eae2f815p-7, 0x1.e29790668d01ep-8};
  const auto pools = TestPools();
  std::vector<ThreadPool*> solve_pools = {nullptr};
  for (const auto& pool : pools) solve_pools.push_back(pool.get());
  for (ThreadPool* const solve_pool : solve_pools) {
    SCOPED_TRACE(solve_pool == nullptr
                     ? std::string("inline")
                     : std::to_string(solve_pool->workers()) + " workers");
    const PolicyResult result =
        ComputePolicy(qoe, g, externals, 160.0, config, solve_pool);
    ASSERT_EQ(result.table.rows.size(), std::size(kRows));
    for (std::size_t i = 0; i < std::size(kRows); ++i) {
      const DecisionTableRow& row = result.table.rows[i];
      EXPECT_EQ(row.lo, kRows[i].lo) << "row " << i;
      EXPECT_EQ(row.hi, kRows[i].hi) << "row " << i;
      EXPECT_EQ(row.decision, kRows[i].decision) << "row " << i;
      EXPECT_EQ(row.expected_qoe, kRows[i].expected_qoe) << "row " << i;
      EXPECT_EQ(row.weight, kRows[i].weight) << "row " << i;
    }
    EXPECT_EQ(result.table.load_fractions, kLoadFractions);
    EXPECT_EQ(result.table.objective_value, 0x1.15a73c0dc5dadp-1);
    EXPECT_EQ(result.stats.buckets, 32);
    EXPECT_EQ(result.stats.hill_climb_steps, 50);
    EXPECT_EQ(result.stats.allocations_evaluated, 2084);
    EXPECT_EQ(result.stats.matchings_solved, 0);
    EXPECT_EQ(result.stats.transport_solves, 4167);
    EXPECT_EQ(result.stats.warm_resolves, 0);
  }
}

// ---- Pooled mapping solves ------------------------------------------------

// Every byte a solve returns, the doubles in hexfloat: each row, the load
// split, the score and every PolicyStats field.
std::string PolicyBytes(const PolicyResult& result) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const DecisionTableRow& row : result.table.rows) {
    out << row.lo << ' ' << row.hi << ' ' << row.decision << ' '
        << row.expected_qoe << ' ' << row.weight << '\n';
  }
  out << "load_fractions";
  for (const double f : result.table.load_fractions) out << ' ' << f;
  const PolicyStats& stats = result.stats;
  out << "\nobjective_value " << result.table.objective_value
      << "\nbuckets " << stats.buckets << " hill_climb_steps "
      << stats.hill_climb_steps << " allocations_evaluated "
      << stats.allocations_evaluated << " matchings_solved "
      << stats.matchings_solved << " transport_solves "
      << stats.transport_solves << " warm_resolves " << stats.warm_resolves
      << '\n';
  return out.str();
}

// Expects the solve to return the same bytes through every pool as inline.
void ExpectPoolsChangeNoByte(
    const QoeModel& qoe, const ServerDelayModel& g,
    std::span<const double> externals, double rps, const PolicyConfig& config,
    const std::vector<std::unique_ptr<ThreadPool>>& pools) {
  const std::string inline_bytes =
      PolicyBytes(ComputePolicy(qoe, g, externals, rps, config));
  for (const auto& pool : pools) {
    EXPECT_EQ(
        PolicyBytes(ComputePolicy(qoe, g, externals, rps, config, pool.get())),
        inline_bytes)
        << pool->workers() << " workers";
  }
}

constexpr ObjectiveKind kAllObjectives[] = {
    ObjectiveKind::kMeanQoe, ObjectiveKind::kTailPercentile,
    ObjectiveKind::kMeanMinusStdev, ObjectiveKind::kFairnessConstrainedMean};
constexpr MappingAlgorithm kAllMappings[] = {
    MappingAlgorithm::kTransportation, MappingAlgorithm::kOptimalMatching,
    MappingAlgorithm::kSlopeBased};

TEST(ComputePolicy, PoolPaysFromFourDecisionsAndNeverForTheSlopeMapping) {
  // A step's D·(D − 1) neighbours against the eight solves a pooled round
  // needs: D = 3 (the db replicas, 6 neighbours) never fans out.
  PolicyConfig config;
  EXPECT_FALSE(PolicyPoolPays(config, 1));
  EXPECT_FALSE(PolicyPoolPays(config, 3));
  EXPECT_TRUE(PolicyPoolPays(config, 4));
  EXPECT_TRUE(PolicyPoolPays(config, 8));
  config.mapping = MappingAlgorithm::kOptimalMatching;
  EXPECT_TRUE(PolicyPoolPays(config, 8));
  config.mapping = MappingAlgorithm::kSlopeBased;
  EXPECT_FALSE(PolicyPoolPays(config, 8));
}

TEST(ComputePolicy, PoolsChangeNoByteOnTheBrokerG) {
  // The live controller's G and load, whose climb steps offer up to 56
  // neighbours, so most rounds fan out: every objective and mapping (the
  // slope-based one always solves inline).
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const PriorityQueueModel g(8, 5.0, 1);
  Rng rng(2019);
  std::vector<double> externals;
  for (int i = 0; i < 600; ++i) externals.push_back(rng.LogNormal(7.6, 0.7));
  const auto pools = TestPools();
  for (const ObjectiveKind kind : kAllObjectives) {
    for (const MappingAlgorithm mapping : kAllMappings) {
      SCOPED_TRACE(ToString(kind) + " mapping " +
                   std::to_string(static_cast<int>(mapping)));
      PolicyConfig config;
      config.objective.kind = kind;
      config.mapping = mapping;
      // The expanded Hungarian solve is O(n³); keep its instance small.
      config.target_buckets =
          mapping == MappingAlgorithm::kOptimalMatching ? 8 : 16;
      ExpectPoolsChangeNoByte(qoe, g, externals, 160.0, config, pools);
    }
  }
}

TEST(ComputePolicy, PoolsChangeNoByteOnRandomInstances) {
  // D = 3 never fans out (a step offers at most 6 neighbours), D = 5 and
  // D = 8 do. Each case draws its G (a priority queue or profiled
  // replicas), its load, its delays and its solve knobs.
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const auto pools = TestPools();
  Rng rng(0xF0F0);
  for (const int decisions : {3, 5, 8}) {
    for (const ObjectiveKind kind : kAllObjectives) {
      for (const MappingAlgorithm mapping : kAllMappings) {
        SCOPED_TRACE("D " + std::to_string(decisions) + " " +
                     ToString(kind) + " mapping " +
                     std::to_string(static_cast<int>(mapping)));
        std::unique_ptr<ServerDelayModel> g;
        double rps = 0.0;
        if (rng.Bernoulli(0.5)) {
          const double interval_ms = rng.Uniform(2.0, 8.0);
          g = std::make_unique<PriorityQueueModel>(decisions, interval_ms, 1);
          rps = rng.Uniform(0.4, 1.1) * 1000.0 / interval_ms;
        } else {
          g = std::make_unique<ProfiledReplicaModel>(decisions,
                                                     ReplayDayProfile());
          rps = rng.Uniform(20.0, 110.0) * static_cast<double>(decisions);
        }
        std::vector<double> externals;
        const int requests = static_cast<int>(rng.Uniform(60.0, 500.0));
        for (int i = 0; i < requests; ++i) {
          externals.push_back(rng.LogNormal(rng.Uniform(7.2, 8.2), 0.7));
        }
        PolicyConfig config;
        config.objective.kind = kind;
        config.mapping = mapping;
        config.target_buckets = static_cast<int>(rng.Uniform(
            decisions, mapping == MappingAlgorithm::kOptimalMatching ? 10.0
                                                                      : 20.0));
        config.refine_fractions = rng.Bernoulli(0.8);
        config.instability_penalty = rng.Bernoulli(0.8) ? 0.15 : 0.0;
        ExpectPoolsChangeNoByte(qoe, *g, externals, rps, config, pools);
      }
    }
  }
}

// Counts Qoe calls into a base curve (serial use only).
class CountingQoeModel final : public QoeModel {
 public:
  explicit CountingQoeModel(const QoeModel& base) : base_(base) {}

  double Qoe(DelayMs total_delay) const override {
    ++calls_;
    return base_.Qoe(total_delay);
  }
  std::string Name() const override { return base_.Name(); }
  DelayMs SensitiveLo() const override { return base_.SensitiveLo(); }
  DelayMs SensitiveHi() const override { return base_.SensitiveHi(); }

  int calls() const { return calls_; }

 private:
  const QoeModel& base_;
  mutable int calls_ = 0;
};

TEST(ComputePolicy, PoolsChangeNoGOrQCall) {
  // Every model call stays on the calling thread, and there are as many:
  // the counting decorators are not thread-safe, so a call from a worker
  // would also be a data race for the tsan leg to report.
  const auto curve = SigmoidQoeModel::TraceTimeOnSite();
  const PriorityQueueModel broker(8, 5.0, 1);
  Rng rng(77);
  std::vector<double> externals;
  for (int i = 0; i < 400; ++i) externals.push_back(rng.LogNormal(7.6, 0.7));
  PolicyConfig config;
  config.target_buckets = 20;
  const CountingQoeModel inline_qoe(curve);
  const CountingServerModel inline_g(broker);
  const PolicyResult inline_result =
      ComputePolicy(inline_qoe, inline_g, externals, 160.0, config);
  ThreadPool pool(4);
  const CountingQoeModel pooled_qoe(curve);
  const CountingServerModel pooled_g(broker);
  const PolicyResult pooled_result =
      ComputePolicy(pooled_qoe, pooled_g, externals, 160.0, config, &pool);
  EXPECT_EQ(PolicyBytes(pooled_result), PolicyBytes(inline_result));
  EXPECT_GT(inline_g.calls(), 0);
  EXPECT_EQ(pooled_g.calls(), inline_g.calls());
  EXPECT_GT(inline_qoe.calls(), 0);
  EXPECT_EQ(pooled_qoe.calls(), inline_qoe.calls());
}

// ---- Table cache -----------------------------------------------------------

// Expects `f` to throw std::invalid_argument with `field` in its message.
template <typename F>
void ExpectInvalidNaming(F&& f, const std::string& field) {
  try {
    f();
    ADD_FAILURE() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

DecisionTable OneRowTable() {
  DecisionTable table;
  table.rows = {{.lo = 0.0, .hi = 1e9, .decision = 0}};
  table.load_fractions = {1.0};
  return table;
}

TEST(DecisionTableCache, RefreshesOnFirstUse) {
  DecisionTableCache cache(TableCacheParams{});
  EXPECT_EQ(cache.Get(), nullptr);
  EXPECT_TRUE(cache.NeedsRefresh({}, 0.0));
  cache.Install(OneRowTable(), {100.0, 200.0}, 10.0);
  EXPECT_NE(cache.Get(), nullptr);
  EXPECT_EQ(cache.installs(), 1u);
}

TEST(DecisionTableCache, StableDistributionHitsCache) {
  DecisionTableCache cache(TableCacheParams{});
  Rng rng(8);
  std::vector<double> a, b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.LogNormal(8.0, 0.8));
    b.push_back(rng.LogNormal(8.0, 0.8));
  }
  cache.Install(OneRowTable(), a, 200.0);
  EXPECT_FALSE(cache.NeedsRefresh(b, 205.0));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DecisionTableCache, DivergedDistributionInvalidates) {
  DecisionTableCache cache(TableCacheParams{});
  Rng rng(9);
  std::vector<double> a, shifted;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.LogNormal(8.0, 0.8));
    shifted.push_back(rng.LogNormal(8.9, 0.8));  // ~2.5x larger delays.
  }
  cache.Install(OneRowTable(), a, 200.0);
  EXPECT_TRUE(cache.NeedsRefresh(shifted, 200.0));
}

TEST(DecisionTableCache, RpsJumpInvalidates) {
  DecisionTableCache cache(TableCacheParams{});
  Rng rng(10);
  std::vector<double> a;
  for (int i = 0; i < 2000; ++i) a.push_back(rng.LogNormal(8.0, 0.8));
  cache.Install(OneRowTable(), a, 100.0);
  EXPECT_TRUE(cache.NeedsRefresh(a, 140.0));   // +40% load.
  EXPECT_FALSE(cache.NeedsRefresh(a, 110.0));  // +10% load.
}

TEST(DecisionTableCache, InvalidInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-1.0, nan}) {
    EXPECT_THROW(DecisionTableCache(TableCacheParams{.js_threshold = bad}),
                 std::invalid_argument);
    EXPECT_THROW(
        DecisionTableCache(TableCacheParams{.rps_change_threshold = bad}),
        std::invalid_argument);
  }
  EXPECT_THROW(DecisionTableCache(TableCacheParams{.support_lo_ms = nan}),
               std::invalid_argument);
  EXPECT_THROW(DecisionTableCache(TableCacheParams{.support_hi_ms = nan}),
               std::invalid_argument);
  // An infinite support bound: +inf would put every sample in bin 0, so the
  // J-S refresh test could never fire. Each names its field.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {-kInf, kInf}) {
    ExpectInvalidNaming(
        [&] { DecisionTableCache(TableCacheParams{.support_lo_ms = bad}); },
        "support_lo_ms");
    ExpectInvalidNaming(
        [&] { DecisionTableCache(TableCacheParams{.support_hi_ms = bad}); },
        "support_hi_ms");
  }
  DecisionTableCache cache(TableCacheParams{});
  EXPECT_THROW(cache.Install(DecisionTable{}, {}, 0.0),
               std::invalid_argument);
  cache.Install(OneRowTable(), {1.0}, 1.0);
  cache.Invalidate();
  EXPECT_EQ(cache.Get(), nullptr);
}

// ---- Controller and failover ----------------------------------------------

ControllerConfig FastControllerConfig() {
  ControllerConfig config;
  config.external.window_ms = 1000.0;
  config.external.min_samples = 10;
  config.policy.target_buckets = 8;
  return config;
}

std::unique_ptr<Controller> MakeController(const char* name,
                                           std::uint64_t seed = 77) {
  auto qoe = std::make_shared<const SigmoidQoeModel>(
      SigmoidQoeModel::TraceTimeOnSite());
  auto g = std::make_shared<const LinearReplicaModel>(3, 40.0, 20.0);
  return std::make_unique<Controller>(name, FastControllerConfig(), qoe, g,
                                      seed);
}

void FeedWindow(Controller& controller, double start_ms, Rng& rng,
                int n = 400) {
  for (int i = 0; i < n; ++i) {
    controller.ObserveArrival(rng.LogNormal(8.1, 0.8),
                              start_ms + i * (1000.0 / n));
  }
}

TEST(Controller, ComputesTableAfterFirstWindow) {
  auto controller = MakeController("c");
  Rng rng(11);
  EXPECT_EQ(controller->Decide(3000.0), -1);  // No table yet.
  FeedWindow(*controller, 0.0, rng);
  EXPECT_TRUE(controller->Tick(1000.0));
  EXPECT_NE(controller->CurrentTable(), nullptr);
  const int decision = controller->Decide(3000.0);
  EXPECT_GE(decision, 0);
  EXPECT_LT(decision, 3);
  EXPECT_EQ(controller->stats().recomputes, 1u);
  // Only table-served lookups count (the first Decide had no table).
  EXPECT_EQ(controller->stats().decisions, 1u);
}

TEST(Controller, StableTrafficDoesNotRecompute) {
  auto controller = MakeController("c");
  Rng rng(12);
  FeedWindow(*controller, 0.0, rng);
  EXPECT_TRUE(controller->Tick(1000.0));
  FeedWindow(*controller, 1000.0, rng);
  EXPECT_FALSE(controller->Tick(2000.0));  // Same distribution: cache hit.
  EXPECT_EQ(controller->stats().recomputes, 1u);
}

TEST(Controller, DistributionShiftTriggersRecompute) {
  auto controller = MakeController("c");
  Rng rng(13);
  FeedWindow(*controller, 0.0, rng);
  EXPECT_TRUE(controller->Tick(1000.0));
  // Shifted external delays in the next window.
  for (int i = 0; i < 400; ++i) {
    controller->ObserveArrival(rng.LogNormal(9.1, 0.8), 1000.0 + i * 2.0);
  }
  EXPECT_TRUE(controller->Tick(2000.0));
  EXPECT_EQ(controller->stats().recomputes, 2u);
}

TEST(Controller, FailedControllerServesStaleTable) {
  auto controller = MakeController("c");
  Rng rng(14);
  FeedWindow(*controller, 0.0, rng);
  controller->Tick(1000.0);
  controller->Fail();
  // Still decides from the stale cache.
  EXPECT_GE(controller->Decide(3000.0), 0);
  // But no longer recomputes.
  for (int i = 0; i < 400; ++i) {
    controller->ObserveArrival(rng.LogNormal(9.3, 0.8), 1000.0 + i * 2.0);
  }
  EXPECT_FALSE(controller->Tick(2000.0));
  controller->Recover();
  EXPECT_FALSE(controller->failed());
}

TEST(Controller, NullModelsThrow) {
  auto qoe = std::make_shared<const SigmoidQoeModel>(
      SigmoidQoeModel::TraceTimeOnSite());
  auto g = std::make_shared<const LinearReplicaModel>(3, 40.0, 20.0);
  EXPECT_THROW(Controller("c", FastControllerConfig(), nullptr, g, 1),
               std::invalid_argument);
  EXPECT_THROW(Controller("c", FastControllerConfig(), qoe, nullptr, 1),
               std::invalid_argument);
}

TEST(Controller, RejectsUnusablePlanningInputs) {
  auto qoe = std::make_shared<const SigmoidQoeModel>(
      SigmoidQoeModel::TraceTimeOnSite());
  auto g = std::make_shared<const LinearReplicaModel>(3, 40.0, 20.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double factor : {std::numeric_limits<double>::quiet_NaN(), kInf,
                              -kInf, 0.0, -1.0}) {
    ControllerConfig config = FastControllerConfig();
    config.rps_planning_factor = factor;
    try {
      Controller("c", config, qoe, g, 1);
      ADD_FAILURE() << "expected std::invalid_argument for " << factor;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("rps_planning_factor"),
                std::string::npos)
          << e.what();
    }
  }
  // A NaN discount used to pass the range guard and then be ignored by the
  // planner's `> 0.0` test.
  Controller controller("c", FastControllerConfig(), qoe, g, 1);
  for (const double fraction :
       {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.0, kInf}) {
    try {
      controller.SetLoadDiscount(fraction);
      ADD_FAILURE() << "expected std::invalid_argument for " << fraction;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SetLoadDiscount"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(controller.load_discount(), 0.0);
  controller.SetLoadDiscount(0.25);
  EXPECT_EQ(controller.load_discount(), 0.25);

  // A policy config every solve would reject fails at construction, not at
  // the first recompute (which never comes if no window fills).
  const auto rejects_policy = [&](void (*edit)(PolicyConfig&),
                                  const char* field) {
    ControllerConfig config = FastControllerConfig();
    edit(config.policy);
    ExpectInvalidNaming([&] { Controller("c", config, qoe, g, 1); }, field);
  };
  rejects_policy([](PolicyConfig& p) { p.target_buckets = 0; },
                 "target_buckets");
  rejects_policy(
      [](PolicyConfig& p) {
        p.max_bucket_span_ms = std::numeric_limits<double>::quiet_NaN();
      },
      "max_bucket_span_ms");
  rejects_policy([](PolicyConfig& p) { p.instability_penalty = -0.5; },
                 "instability_penalty");
}

TEST(Failover, BackupTakesOverAfterElection) {
  ReplicatedControllerGroup group(MakeController("primary", 1),
                                  MakeController("backup", 2));
  Rng rng(15);
  for (int i = 0; i < 400; ++i) {
    group.ObserveArrival(rng.LogNormal(8.1, 0.8), i * 2.0);
  }
  EXPECT_TRUE(group.Tick(1000.0));
  const int before = group.Decide(3000.0);
  EXPECT_GE(before, 0);

  group.FailPrimary(2000.0, 5000.0);
  EXPECT_TRUE(group.InElection());
  // During the election the stale table still answers.
  EXPECT_GE(group.Decide(3000.0), 0);
  EXPECT_FALSE(group.Tick(3000.0));

  // After the election the backup resumes updates.
  for (int i = 0; i < 400; ++i) {
    group.ObserveArrival(rng.LogNormal(8.6, 0.8), 7000.0 + i * 2.0);
  }
  group.Tick(8000.0);
  EXPECT_FALSE(group.InElection());
  EXPECT_EQ(group.active().name(), "backup");
  EXPECT_GE(group.Decide(3000.0), 0);
}

TEST(Controller, AdoptStateFromCopiesTableAndDecisions) {
  auto primary = MakeController("primary", 1);
  auto backup = MakeController("backup", 2);
  Rng rng(16);
  FeedWindow(*primary, 0.0, rng);
  ASSERT_TRUE(primary->Tick(1000.0));
  ASSERT_NE(primary->CurrentTable(), nullptr);
  EXPECT_EQ(backup->CurrentTable(), nullptr);

  backup->AdoptStateFrom(*primary);
  ASSERT_NE(backup->CurrentTable(), nullptr);
  // The adopted table answers identically across the external-delay range.
  for (double external = 500.0; external < 20000.0; external += 375.0) {
    EXPECT_EQ(backup->Decide(external), primary->Decide(external))
        << "external " << external;
  }
}

TEST(Failover, PromotedBackupAdoptsThePrimaryTable) {
  ReplicatedControllerGroup group(MakeController("primary", 1),
                                  MakeController("backup", 2));
  Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    group.ObserveArrival(rng.LogNormal(8.1, 0.8), i * 2.0);
  }
  ASSERT_TRUE(group.Tick(1000.0));

  // Snapshot the primary's answers before the failure.
  std::vector<int> before;
  for (double external = 500.0; external < 20000.0; external += 375.0) {
    before.push_back(group.Decide(external));
  }

  group.FailPrimary(2000.0, 5000.0);
  EXPECT_FALSE(group.promoted());
  group.Tick(8000.0);  // Election complete: backup promoted.
  EXPECT_TRUE(group.promoted());
  EXPECT_EQ(group.active().name(), "backup");

  // Until the backup recomputes, its adopted table matches the primary's.
  std::size_t i = 0;
  for (double external = 500.0; external < 20000.0; external += 375.0, ++i) {
    EXPECT_EQ(group.Decide(external), before[i]) << "external " << external;
  }
}

TEST(Failover, ExplicitElectionWindowOverridesTheDefault) {
  ReplicatedControllerGroup group(MakeController("primary", 1),
                                  MakeController("backup", 2));
  // A fault-plan crash clause carries its own election window.
  group.FailPrimary(1000.0, 2000.0);
  EXPECT_TRUE(group.InElection());
  group.Tick(2500.0);
  EXPECT_TRUE(group.InElection());  // 1.5 s elapsed < 2 s window.
  group.Tick(3100.0);
  EXPECT_FALSE(group.InElection());
  EXPECT_TRUE(group.promoted());
  EXPECT_THROW(group.FailPrimary(0.0, -5.0), std::invalid_argument);
}

TEST(Failover, RecoveredPrimaryStaysStandbyAfterPromotion) {
  ReplicatedControllerGroup group(MakeController("primary", 1),
                                  MakeController("backup", 2));
  Rng rng(18);
  for (int i = 0; i < 400; ++i) {
    group.ObserveArrival(rng.LogNormal(8.1, 0.8), i * 2.0);
  }
  group.Tick(1000.0);
  group.FailPrimary(2000.0, 1000.0);
  group.Tick(3500.0);
  ASSERT_TRUE(group.promoted());
  // The promoted backup keeps serving and resumes recomputation.
  for (int i = 0; i < 400; ++i) {
    group.ObserveArrival(rng.LogNormal(8.8, 0.8), 4000.0 + i * 2.0);
  }
  EXPECT_TRUE(group.Tick(5000.0));
  EXPECT_EQ(group.active().name(), "backup");
  EXPECT_GE(group.Decide(3000.0), 0);
}

TEST(Failover, DoubleFailureIsIdempotent) {
  ReplicatedControllerGroup group(MakeController("primary", 1),
                                  MakeController("backup", 2));
  group.FailPrimary(0.0, 1000.0);
  group.FailPrimary(500.0, 1000.0);  // No effect.
  group.Tick(2000.0);
  EXPECT_EQ(group.active().name(), "backup");
}

TEST(Failover, InvalidConstructionThrows) {
  EXPECT_THROW(ReplicatedControllerGroup(nullptr, MakeController("b")),
               std::invalid_argument);
}

}  // namespace
}  // namespace e2e
