// Objective tier (ctest label `objective`, docs/OBJECTIVES.md): proves the
// pluggable-objective and session-abandonment contracts.
//
//  * MakeObjective: factory names, distribution flags, parameter
//    validation, and hand-computed scores for every built-in family.
//  * AbandonmentModel: pure-hash determinism (order/instance independent),
//    sigma-0 exactness, per-class patience ordering, disabled == never.
//  * Bit-compatibility: the default config and an explicit mean objective
//    produce byte-identical ExperimentResult::Serialize() and telemetry at
//    any worker or shard count, with no `abandoned` field emitted.
//  * Distribution-path determinism: a NeedsDistribution() objective is
//    also byte-identical across shard and worker counts.
//  * Abandonment: shard-count invariance and rerun identity with the model
//    enabled, the five-status conservation invariant, aggregate-only
//    consistency, and abandonment rate monotone non-decreasing in load.
//  * Tail rescue: on a crafted two-population scenario the p10 objective
//    strictly improves realized p10 QoE over the mean objective.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/server_delay_model.h"
#include "proptest.h"
#include "qoe/abandonment.h"
#include "qoe/objective.h"
#include "qoe/sigmoid_model.h"
#include "stats/distribution.h"
#include "stats/summary.h"
#include "testbed/metrics.h"
#include "testbed/sharded_replay.h"
#include "trace/generator.h"
#include "util/rng.h"
#include "util/types.h"

namespace e2e {
namespace {

// ---- Shared fixtures (mirrors the scale tier's synthetic day) --------------

LoadProfile SyntheticProfile() {
  LoadProfile profile;
  profile.max_rps = 10.0;
  for (int level = 1; level <= 8; ++level) {
    const double rps = 10.0 * static_cast<double>(level) / 8.0;
    profile.level_rps.push_back(rps);
    const double base = 40.0 + 15.0 * static_cast<double>(level);
    profile.delays.emplace_back(
        std::vector<double>{0.6 * base, base, 1.9 * base},
        std::vector<double>{0.25, 0.5, 0.25});
  }
  profile.max_stable_rps = 8.75;
  return profile;
}

const ProfiledReplicaModel& TestServerModel() {
  static const ProfiledReplicaModel model(3, SyntheticProfile());
  return model;
}

const QoeModel& TestQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

QoeModelSelector TestSelector() {
  return [](PageType) -> const QoeModel& { return TestQoe(); };
}

const Trace& TestTrace() {
  static const Trace trace = [] {
    TraceGenParams params;
    params.seed = 7;
    params.scale = 0.002;
    return TraceGenerator(params).Generate();
  }();
  return trace;
}

ShardedReplayConfig BaseReplayConfig(int shards) {
  ShardedReplayConfig config;
  config.common.seed = 42;
  config.common.collect_telemetry = true;
  config.common.controller.external.window_ms = 600000.0;  // 10 min groups.
  config.common.controller.policy.target_buckets = 8;
  config.common.controller.policy.max_bucket_span_ms = 2000.0;
  config.common.controller.shards = shards;
  return config;
}

ShardedReplayResult Replay(const ShardedReplayConfig& config) {
  return ReplayTraceSharded(TestTrace().records, TestSelector(),
                            TestServerModel(), config);
}

// The scale tier's loaded day: under TestServerModel() every group of the
// test day plans below the first level and no group reaches the solve, so
// this model scales the profile's loads down 320-fold and moves the stable
// cap to the second level. Groups of one or two records stay flat, larger
// ones climb, and the largest overload a replica under every split.
const ProfiledReplicaModel& LoadedServerModel() {
  static const ProfiledReplicaModel model(3, [] {
    LoadProfile profile = SyntheticProfile();
    profile.max_rps /= 320.0;
    for (double& rps : profile.level_rps) rps /= 320.0;
    profile.max_stable_rps = profile.level_rps[1];
    return profile;
  }());
  return model;
}

// Forwards what the policy asks G but not FlatUpTo, so a replay over it
// solves every group.
class PassThroughModel final : public ServerDelayModel {
 public:
  explicit PassThroughModel(const ServerDelayModel& base) : base_(base) {}

  int NumDecisions() const override { return base_.NumDecisions(); }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const override {
    return base_.DelayDistribution(decision, load_fractions, total_rps);
  }
  std::string Name() const override { return base_.Name(); }
  bool IsOverloaded(int decision, std::span<const double> load_fractions,
                    double total_rps) const override {
    return base_.IsOverloaded(decision, load_fractions, total_rps);
  }

 private:
  const ServerDelayModel& base_;
};

// Bucket views over caller-owned storage, for hand-computed score checks.
QoeBucketView MakeView(double weight, double expected,
                       std::span<const double> values = {},
                       std::span<const double> probs = {}) {
  QoeBucketView view;
  view.weight = weight;
  view.expected_qoe = expected;
  view.qoe_values = values;
  view.probabilities = probs;
  return view;
}

// ---- Factory: names, flags, validation -------------------------------------

TEST(ObjectiveFactory, NamesAndDistributionFlags) {
  ObjectiveConfig config;
  const auto mean = MakeObjective(config);
  EXPECT_EQ(mean->Name(), "mean");
  EXPECT_FALSE(mean->NeedsDistribution());

  config.kind = ObjectiveKind::kTailPercentile;
  config.percentile = 10.0;
  EXPECT_EQ(MakeObjective(config)->Name(), "p10");
  EXPECT_TRUE(MakeObjective(config)->NeedsDistribution());
  config.percentile = 5.0;
  EXPECT_EQ(MakeObjective(config)->Name(), "p5");

  config.kind = ObjectiveKind::kMeanMinusStdev;
  EXPECT_EQ(MakeObjective(config)->Name(), "mean-stdev");
  EXPECT_TRUE(MakeObjective(config)->NeedsDistribution());

  config.kind = ObjectiveKind::kFairnessConstrainedMean;
  EXPECT_EQ(MakeObjective(config)->Name(), "fair-mean");
  EXPECT_FALSE(MakeObjective(config)->NeedsDistribution());

  EXPECT_EQ(ToString(ObjectiveKind::kMeanQoe), "mean");
  EXPECT_EQ(ToString(ObjectiveKind::kTailPercentile), "tail-percentile");
  EXPECT_EQ(ToString(ObjectiveKind::kMeanMinusStdev), "mean-stdev");
  EXPECT_EQ(ToString(ObjectiveKind::kFairnessConstrainedMean), "fair-mean");
}

// MakeObjective(config) throws std::invalid_argument naming `field`.
void ExpectRejected(const ObjectiveConfig& config, const std::string& field,
                    double bad) {
  try {
    (void)MakeObjective(config);
    ADD_FAILURE() << field << " = " << bad << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << field << " = " << bad << ": " << e.what();
  }
}

TEST(ObjectiveFactory, RejectsOutOfRangeParameters) {
  // A NaN passes a plain range comparison (a NaN percentile would plan the
  // p-max table, a NaN fairness floor would drop the floor), and an
  // infinite weight, λ or penalty scores every candidate ±inf or NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ObjectiveConfig config;
  config.kind = ObjectiveKind::kTailPercentile;
  for (const double bad : {0.0, 100.0, -5.0, nan, inf, -inf}) {
    config.percentile = bad;
    ExpectRejected(config, "percentile", bad);
  }
  config.percentile = 10.0;
  for (const double bad : {-1e-6, nan, inf, -inf}) {
    config.tail_mean_weight = bad;
    ExpectRejected(config, "tail_mean_weight", bad);
  }

  config = ObjectiveConfig{};
  config.kind = ObjectiveKind::kMeanMinusStdev;
  for (const double bad : {-0.1, nan, inf, -inf}) {
    config.stdev_lambda = bad;
    ExpectRejected(config, "stdev_lambda", bad);
  }

  config = ObjectiveConfig{};
  config.kind = ObjectiveKind::kFairnessConstrainedMean;
  for (const double bad : {1.5, -0.1, nan, inf, -inf}) {
    config.min_fairness = bad;
    ExpectRejected(config, "min_fairness", bad);
  }
  config.min_fairness = 0.95;
  for (const double bad : {-1.0, nan, inf, -inf}) {
    config.fairness_penalty = bad;
    ExpectRejected(config, "fairness_penalty", bad);
  }
  // The edges stay valid.
  config.min_fairness = 1.0;
  config.fairness_penalty = 0.0;
  EXPECT_NO_THROW((void)MakeObjective(config));
}

// ---- Hand-computed scores ---------------------------------------------------

TEST(ObjectiveScore, MeanIsTheWeightedMean) {
  const std::vector<QoeBucketView> views{MakeView(0.25, 0.5),
                                         MakeView(0.75, 0.9)};
  EXPECT_DOUBLE_EQ(MakeObjective({})->Score(views), 0.25 * 0.5 + 0.75 * 0.9);
}

TEST(ObjectiveScore, TailPercentileOfThePooledDistribution) {
  // Pooled masses 0.25 each: {0.2, 0.4, 0.8, 1.0}; p10 target is mass 0.1,
  // reached at 0.2; p60 target 0.6 is reached at 0.8.
  const std::vector<double> va{0.2, 0.8};
  const std::vector<double> vb{0.4, 1.0};
  const std::vector<double> half{0.5, 0.5};
  const std::vector<QoeBucketView> views{MakeView(0.5, 0.5, va, half),
                                         MakeView(0.5, 0.7, vb, half)};
  ObjectiveConfig config;
  config.kind = ObjectiveKind::kTailPercentile;
  config.tail_mean_weight = 0.0;  // Exact percentile, no tie-break.
  config.percentile = 10.0;
  EXPECT_DOUBLE_EQ(MakeObjective(config)->Score(views), 0.2);
  config.percentile = 60.0;
  EXPECT_DOUBLE_EQ(MakeObjective(config)->Score(views), 0.8);
  // The mean tie-break adds tail_mean_weight * weighted mean.
  config.percentile = 10.0;
  config.tail_mean_weight = 1e-3;
  EXPECT_DOUBLE_EQ(MakeObjective(config)->Score(views), 0.2 + 1e-3 * 0.6);
}

TEST(ObjectiveScore, MeanMinusStdevPenalizesSpread) {
  ObjectiveConfig config;
  config.kind = ObjectiveKind::kMeanMinusStdev;
  config.stdev_lambda = 1.0;
  // Bernoulli(0.5) on {0, 1}: mean 0.5, stdev 0.5 -> score 0.
  const std::vector<double> values{0.0, 1.0};
  const std::vector<double> half{0.5, 0.5};
  const std::vector<QoeBucketView> spread{MakeView(1.0, 0.5, values, half)};
  EXPECT_NEAR(MakeObjective(config)->Score(spread), 0.0, 1e-12);
  // A degenerate distribution is not penalized at all.
  const std::vector<double> point{0.7};
  const std::vector<double> one{1.0};
  const std::vector<QoeBucketView> tight{MakeView(1.0, 0.7, point, one)};
  EXPECT_DOUBLE_EQ(MakeObjective(config)->Score(tight), 0.7);
  // Lambda scales the dock.
  config.stdev_lambda = 0.5;
  EXPECT_NEAR(MakeObjective(config)->Score(spread), 0.25, 1e-12);
}

TEST(ObjectiveScore, FairnessDockOnlyBelowTheFloor) {
  ObjectiveConfig config;
  config.kind = ObjectiveKind::kFairnessConstrainedMean;
  config.min_fairness = 0.95;
  config.fairness_penalty = 1.0;
  // Perfectly fair buckets score exactly the mean.
  const std::vector<QoeBucketView> fair{MakeView(0.5, 0.8),
                                        MakeView(0.5, 0.8)};
  EXPECT_DOUBLE_EQ(MakeObjective(config)->Score(fair), 0.8);
  // Jain of {1, 0} at equal weights is 0.5: dock = 0.95 - 0.5.
  const std::vector<QoeBucketView> unfair{MakeView(0.5, 1.0),
                                          MakeView(0.5, 0.0)};
  EXPECT_NEAR(MakeObjective(config)->Score(unfair), 0.5 - 0.45, 1e-12);
}

TEST(ObjectiveScore, MeanIgnoresDistributionSpansByConstruction) {
  proptest::Check("objective-mean-linearity", [](Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 12));
    std::vector<QoeBucketView> views;
    double expected_score = 0.0;
    std::vector<double> weights(n);
    for (std::size_t i = 0; i < n; ++i) {
      weights[i] = rng.Uniform(0.01, 1.0);
    }
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weights[i] / total;
      const double q = rng.Uniform(0.0, 1.0);
      views.push_back(MakeView(w, q));
      expected_score += w * q;
    }
    EXPECT_DOUBLE_EQ(MakeObjective({})->Score(views), expected_score);
  });
}

// ---- Abandonment model ------------------------------------------------------

AbandonmentConfig EnabledAbandonment() {
  AbandonmentConfig config;
  config.enabled = true;
  return config;
}

TEST(AbandonmentModel, DisabledNeverAbandons) {
  const AbandonmentModel model{AbandonmentConfig{}};
  EXPECT_FALSE(model.enabled());
  EXPECT_FALSE(model.Abandons(1, SensitivityClass::kSensitive, 1e12));
}

TEST(AbandonmentModel, PatienceIsAPureHashOfSeedAndSession) {
  const AbandonmentModel a(EnabledAbandonment());
  const AbandonmentModel b(EnabledAbandonment());
  // Same (seed, session) agrees across instances and query orders.
  std::vector<double> forward;
  for (std::uint64_t id = 0; id < 64; ++id) {
    forward.push_back(a.PatienceMs(id, SensitivityClass::kSensitive));
  }
  for (std::uint64_t id = 64; id-- > 0;) {
    EXPECT_DOUBLE_EQ(b.PatienceMs(id, SensitivityClass::kSensitive),
                     forward[id]);
  }
  // A different seed draws a different patience population.
  AbandonmentConfig reseeded = EnabledAbandonment();
  reseeded.seed = 1;
  const AbandonmentModel c(reseeded);
  bool any_diff = false;
  for (std::uint64_t id = 0; id < 64 && !any_diff; ++id) {
    any_diff = c.PatienceMs(id, SensitivityClass::kSensitive) != forward[id];
  }
  EXPECT_TRUE(any_diff);
}

TEST(AbandonmentModel, SigmaZeroGivesTheClassBaseExactly) {
  AbandonmentConfig config = EnabledAbandonment();
  config.jitter_sigma = 0.0;
  const AbandonmentModel model(config);
  for (std::uint64_t id : {0ULL, 7ULL, 123456789ULL}) {
    EXPECT_DOUBLE_EQ(model.PatienceMs(id, SensitivityClass::kTooFastToMatter),
                     config.patience_fast_ms);
    EXPECT_DOUBLE_EQ(model.PatienceMs(id, SensitivityClass::kSensitive),
                     config.patience_sensitive_ms);
    EXPECT_DOUBLE_EQ(model.PatienceMs(id, SensitivityClass::kTooSlowToMatter),
                     config.patience_slow_ms);
  }
  // Sensitive users quit earliest, hopeless paths are the most patient.
  EXPECT_LT(model.PatienceMs(1, SensitivityClass::kSensitive),
            model.PatienceMs(1, SensitivityClass::kTooFastToMatter));
  EXPECT_LT(model.PatienceMs(1, SensitivityClass::kTooFastToMatter),
            model.PatienceMs(1, SensitivityClass::kTooSlowToMatter));
  // Abandons is a strict threshold on the patience value.
  EXPECT_FALSE(model.Abandons(1, SensitivityClass::kSensitive,
                              config.patience_sensitive_ms));
  EXPECT_TRUE(model.Abandons(1, SensitivityClass::kSensitive,
                             config.patience_sensitive_ms + 1.0));
}

TEST(AbandonmentModel, RejectsInvalidConfig) {
  AbandonmentConfig config = EnabledAbandonment();
  config.patience_sensitive_ms = 0.0;
  EXPECT_THROW(AbandonmentModel{config}, std::invalid_argument);
  config = EnabledAbandonment();
  config.patience_fast_ms = -1.0;
  EXPECT_THROW(AbandonmentModel{config}, std::invalid_argument);
  config = EnabledAbandonment();
  config.jitter_sigma = -0.5;
  EXPECT_THROW(AbandonmentModel{config}, std::invalid_argument);
}

// ---- Replay bit-compatibility and determinism -------------------------------

TEST(ObjectiveReplay, ExplicitMeanIsByteIdenticalToTheDefault) {
  const ShardedReplayResult stock = Replay(BaseReplayConfig(2));
  ShardedReplayConfig explicit_mean = BaseReplayConfig(2);
  explicit_mean.common.controller.policy.objective.kind =
      ObjectiveKind::kMeanQoe;
  const ShardedReplayResult mean = Replay(explicit_mean);

  const std::string stock_bytes = stock.result.Serialize();
  EXPECT_EQ(stock_bytes, mean.result.Serialize());
  EXPECT_EQ(stock.result.telemetry.SerializeText(),
            mean.result.telemetry.SerializeText());
  // No abandonment model, no `abandoned` field: stock results stay
  // byte-identical to the pre-abandonment schema.
  EXPECT_EQ(stock_bytes.find("abandoned"), std::string::npos);
  EXPECT_EQ(stock.result.abandoned, 0u);
}

TEST(ObjectiveReplay, MeanObjectiveInvariantAcrossWorkersAndShards) {
  ShardedReplayConfig base = BaseReplayConfig(1);
  base.common.controller.policy.objective.kind = ObjectiveKind::kMeanQoe;
  const std::string reference = Replay(base).result.Serialize();
  for (const int shards : {2, 4}) {
    ShardedReplayConfig config = BaseReplayConfig(shards);
    config.common.controller.policy.objective.kind = ObjectiveKind::kMeanQoe;
    EXPECT_EQ(Replay(config).result.Serialize(), reference)
        << "shards=" << shards;
  }
}

TEST(ObjectiveReplay, DistributionObjectiveInvariantAcrossWorkersAndShards) {
  // kMeanMinusStdev exercises the NeedsDistribution() evaluator path; it
  // must be just as shard-invariant as the mean fast path.
  auto configure = [](int shards) {
    ShardedReplayConfig config = BaseReplayConfig(shards);
    config.common.controller.policy.objective.kind =
        ObjectiveKind::kMeanMinusStdev;
    config.common.controller.policy.objective.stdev_lambda = 0.5;
    return config;
  };
  const std::string reference = Replay(configure(1)).result.Serialize();
  EXPECT_EQ(Replay(configure(4)).result.Serialize(), reference);
  EXPECT_EQ(Replay(configure(2)).result.Serialize(), reference);
}

TEST(ObjectiveReplay, LoadedDayEveryObjectiveMatchesTheSolvedReplay) {
  // Groups charged straight from G take the table every objective would
  // have solved to, and the replay stays shard-count-invariant.
  const PassThroughModel solve_every_group(LoadedServerModel());
  for (const ObjectiveKind kind :
       {ObjectiveKind::kMeanQoe, ObjectiveKind::kTailPercentile,
        ObjectiveKind::kMeanMinusStdev,
        ObjectiveKind::kFairnessConstrainedMean}) {
    const auto replay = [kind](const ServerDelayModel& g, int shards) {
      ShardedReplayConfig config = BaseReplayConfig(shards);
      config.common.controller.policy.objective.kind = kind;
      return ReplayTraceSharded(TestTrace().records, TestSelector(), g,
                                config);
    };
    const ShardedReplayResult serial = replay(LoadedServerModel(), 1);
    EXPECT_GT(serial.stats.groups_solved, 0u) << ToString(kind);
    EXPECT_LT(serial.stats.groups_solved, serial.stats.groups_merged)
        << ToString(kind);
    const std::string bytes = serial.result.Serialize();
    EXPECT_EQ(replay(LoadedServerModel(), 4).result.Serialize(), bytes)
        << ToString(kind);
    EXPECT_EQ(replay(solve_every_group, 1).result.Serialize(), bytes)
        << ToString(kind);
  }
}

// ---- Abandonment through the sharded replay ---------------------------------

ShardedReplayConfig AbandonmentReplayConfig(int shards) {
  ShardedReplayConfig config = BaseReplayConfig(shards);
  config.common.abandonment.enabled = true;
  // Tighten the sensitive patience so the synthetic day (median external
  // ~3.4 s) produces a solid abandonment population.
  config.common.abandonment.patience_sensitive_ms = 6000.0;
  return config;
}

TEST(AbandonmentReplay, ShardInvariantRerunStableAndConserving) {
  const ShardedReplayResult one = Replay(AbandonmentReplayConfig(1));
  const ShardedReplayResult four = Replay(AbandonmentReplayConfig(4));
  const ShardedReplayResult again = Replay(AbandonmentReplayConfig(4));

  const std::string bytes = one.result.Serialize();
  EXPECT_EQ(bytes, four.result.Serialize());
  EXPECT_EQ(bytes, again.result.Serialize());
  EXPECT_EQ(one.result.telemetry.SerializeText(),
            four.result.telemetry.SerializeText());

  // The model actually fires on this day, and the field serializes.
  EXPECT_GT(one.result.abandoned, 0u);
  EXPECT_NE(bytes.find("abandoned="), std::string::npos);

  // Conservation: the five statuses account for every arrival.
  EXPECT_EQ(one.result.arrivals,
            one.result.completed + one.result.failed_over +
                one.result.dropped + one.result.shed + one.result.abandoned);

  // The QoE distribution aggregates cover exactly the served requests.
  const std::uint64_t served = one.result.completed + one.result.failed_over;
  EXPECT_EQ(one.qoe_summary.count(), served);
  std::uint64_t histogram_mass = 0;
  for (const std::uint64_t bin : one.qoe_histogram) histogram_mass += bin;
  EXPECT_EQ(histogram_mass, served);
}

TEST(AbandonmentReplay, LoadedDayShardInvariantAndConserving) {
  // On the loaded day overload backlog drives quits, and quits thin the
  // load of later windows, so groups move between the flat and solved
  // paths as sessions leave.
  const auto replay = [](const ServerDelayModel& g, int shards) {
    return ReplayTraceSharded(TestTrace().records, TestSelector(), g,
                              AbandonmentReplayConfig(shards));
  };
  const ShardedReplayResult one = replay(LoadedServerModel(), 1);
  EXPECT_GT(one.result.abandoned, 0u);
  EXPECT_GT(one.stats.groups_solved, 0u);
  EXPECT_LT(one.stats.groups_solved, one.stats.groups_merged);
  EXPECT_EQ(one.result.arrivals, one.result.completed + one.result.abandoned);
  const std::string bytes = one.result.Serialize();
  EXPECT_EQ(replay(LoadedServerModel(), 4).result.Serialize(), bytes);
  EXPECT_EQ(replay(PassThroughModel(LoadedServerModel()), 1).result.Serialize(),
            bytes);
}

TEST(AbandonmentReplay, AggregateOnlyModeMatchesOutcomeAggregates) {
  ShardedReplayConfig keep = AbandonmentReplayConfig(2);
  ShardedReplayConfig fold = AbandonmentReplayConfig(2);
  fold.keep_outcomes = false;
  const ShardedReplayResult with_outcomes = Replay(keep);
  const ShardedReplayResult folded = Replay(fold);

  EXPECT_TRUE(folded.result.outcomes.empty());
  EXPECT_EQ(folded.result.abandoned, with_outcomes.result.abandoned);
  EXPECT_EQ(folded.result.completed, with_outcomes.result.completed);
  EXPECT_EQ(folded.result.arrivals, with_outcomes.result.arrivals);
  EXPECT_DOUBLE_EQ(folded.result.mean_qoe, with_outcomes.result.mean_qoe);
  EXPECT_EQ(folded.qoe_histogram, with_outcomes.qoe_histogram);
  EXPECT_EQ(folded.qoe_summary.count(), with_outcomes.qoe_summary.count());
  EXPECT_DOUBLE_EQ(folded.qoe_summary.mean(), with_outcomes.qoe_summary.mean());
}

TEST(AbandonmentReplay, AbandonmentRateMonotoneInLoad) {
  // Scaling the planned load inflates every group's planned server delays
  // (the profile is monotone in rps, and overload adds backlog), so total
  // delay — and with it the abandonment rate — must not decrease.
  // The synthetic day is tiny (0.2% volume), so per-group planned rps sits
  // far below the profile's first load level at factor 1; the sweep has to
  // reach factors that push peak groups through the profile and into
  // overload backlog before planned delays (and quits) respond.
  double previous_rate = -1.0;
  std::uint64_t lightest = 0;  // Abandonment count at the first factor.
  std::uint64_t heaviest = 0;  // ... and at the last.
  bool first = true;
  for (const double factor : {1.0, 100.0, 400.0, 1600.0}) {
    ShardedReplayConfig config = AbandonmentReplayConfig(2);
    config.keep_outcomes = false;
    config.common.controller.rps_planning_factor = factor;
    const ShardedReplayResult result = Replay(config);
    ASSERT_GT(result.result.arrivals, 0u);
    const double rate = static_cast<double>(result.result.abandoned) /
                        static_cast<double>(result.result.arrivals);
    EXPECT_GE(rate, previous_rate) << "rps_planning_factor=" << factor;
    previous_rate = rate;
    if (first) lightest = result.result.abandoned;
    first = false;
    heaviest = result.result.abandoned;
  }
  // And the sweep spans a genuinely different operating regime.
  EXPECT_GT(heaviest, lightest);
}

// ---- Tail rescue: p10 objective improves realized p10 QoE -------------------

// Pooled realized QoE distribution of `table` applied to `externals`: each
// request contributes its decision's full delay-distribution support.
struct RealizedQoe {
  std::vector<double> values;
  std::vector<double> masses;

  double Percentile(double p) const {
    return WeightedPercentile(values, masses, p);
  }
  double Mean() const {
    double total_mass = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      total += values[i] * masses[i];
      total_mass += masses[i];
    }
    return total / total_mass;
  }
};

RealizedQoe Realize(const DecisionTable& table, const QoeModel& qoe,
                    const ServerDelayModel& g,
                    std::span<const DelayMs> externals, double total_rps) {
  RealizedQoe realized;
  const double per_request = 1.0 / static_cast<double>(externals.size());
  for (const DelayMs external : externals) {
    const int decision = table.Lookup(external);
    const DiscreteDistribution dist =
        g.DelayDistribution(decision, table.load_fractions, total_rps);
    for (std::size_t i = 0; i < dist.values().size(); ++i) {
      realized.values.push_back(qoe.Qoe(external + dist.values()[i]));
      realized.masses.push_back(per_request * dist.probabilities()[i]);
    }
  }
  return realized;
}

TEST(TailObjective, ImprovesRealizedTailQoeOnASplitPopulation) {
  // An overloaded pair of replicas operating in the *convex* tail of the
  // QoE sigmoid: splitting the load evenly lands every user past the
  // midpoint (uniformly mediocre QoE), while skewing it rescues the users
  // on the lightly-loaded replica at the cost of pushing everyone else
  // deep into the flat tail. Convexity makes the skew the higher-*mean*
  // allocation, but its bottom decile is far worse — so the mean and p10
  // objectives must pick different allocations, and the p10 table must
  // realize a strictly better 10th percentile.
  const SigmoidQoeModel qoe("tail-test", 0.0, 1.0,
                            {{1.0, 1000.0, 150.0}}, 700.0, 1300.0);
  LoadProfile profile;
  profile.max_rps = 15.0;
  profile.level_rps = {5.0, 15.0};
  profile.delays.emplace_back(std::vector<double>{500.0},
                              std::vector<double>{1.0});
  profile.delays.emplace_back(std::vector<double>{1700.0},
                              std::vector<double>{1.0});
  const ProfiledReplicaModel g(/*replicas=*/2, profile);
  // Externals spread just enough to form several buckets; everyone sits
  // well before the cliff, so placement is decided by server delay alone.
  std::vector<DelayMs> externals;
  for (int i = 0; i < 100; ++i) {
    externals.push_back(440.0 + 1.2 * static_cast<double>(i));
  }
  const double total_rps = 15.0;

  PolicyConfig config;
  config.target_buckets = 8;
  config.max_bucket_span_ms = 2000.0;

  config.objective.kind = ObjectiveKind::kMeanQoe;
  const PolicyResult mean_policy =
      ComputePolicy(qoe, g, externals, total_rps, config);
  config.objective.kind = ObjectiveKind::kTailPercentile;
  config.objective.percentile = 10.0;
  const PolicyResult tail_policy =
      ComputePolicy(qoe, g, externals, total_rps, config);

  const RealizedQoe mean_realized =
      Realize(mean_policy.table, qoe, g, externals, total_rps);
  const RealizedQoe tail_realized =
      Realize(tail_policy.table, qoe, g, externals, total_rps);

  // The tail objective measurably lifts realized p10 QoE; the mean
  // objective keeps its own yardstick (mean QoE) at least as high.
  EXPECT_GT(tail_realized.Percentile(10.0), mean_realized.Percentile(10.0));
  EXPECT_GE(mean_realized.Mean(), tail_realized.Mean());
}

}  // namespace
}  // namespace e2e
