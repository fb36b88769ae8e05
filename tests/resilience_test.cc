// Tests for the deterministic resilience layer (docs/RESILIENCE.md):
// retry policy, circuit breaker + adaptive slowness, QoE-aware admission,
// hedged reads, fault-plan trace transforms, the correlated `then` grammar,
// and the replay/conservation properties under randomized fault plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "proptest.h"
#include "qoe/sigmoid_model.h"
#include "resilience/admission.h"
#include "resilience/circuit_breaker.h"
#include "resilience/cloning_model.h"
#include "resilience/retry_policy.h"
#include "stats/bucketizer.h"
#include "testbed/broker_experiment.h"
#include "testbed/counterfactual.h"
#include "testbed/db_experiment.h"
#include "testbed/metrics.h"
#include "testbed/workloads.h"

namespace e2e {
namespace {

using resilience::AdmissionConfig;
using resilience::AdmissionController;
using resilience::AdmissionDecision;
using resilience::BreakerConfig;
using resilience::CircuitBreaker;
using resilience::ResilienceConfig;
using resilience::RetryConfig;
using resilience::RetryPolicy;
using resilience::SlownessTracker;

const SigmoidQoeModel& TraceQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

std::vector<TraceRecord> LoadedWorkload(std::size_t n = 1500,
                                        std::uint64_t seed = 17,
                                        double rps = 60.0) {
  SyntheticWorkloadParams params;
  params.num_requests = n;
  params.seed = seed;
  params.rps = rps;
  return MakeSyntheticWorkload(params);
}

DbExperimentConfig FastDbConfig(DbPolicy policy) {
  DbExperimentConfig config;
  config.policy = policy;
  config.dataset_keys = 2000;
  config.value_bytes = 16;
  config.range_count = 20;
  config.common.speedup = 1.0;
  config.cluster.replica_groups = 3;
  config.cluster.concurrency_per_replica = 8;
  config.cluster.base_service_ms = 120.0;
  config.cluster.capacity = 8.0;
  config.profile_levels = 12;
  config.profile_max_rps = 60.0;
  config.profile_duration_ms = 15000.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 10;
  return config;
}

BrokerExperimentConfig FastBrokerConfig(BrokerPolicy policy) {
  BrokerExperimentConfig config;
  config.policy = policy;
  config.common.speedup = 1.0;
  config.broker.priority_levels = 6;
  config.broker.consume_interval_ms = 18.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 10;
  return config;
}

// completed + failed_over + dropped + shed == arrivals: nothing the testbed
// accepted is ever silently lost, whatever the mitigation layer decided.
void ExpectConservation(const ExperimentResult& result) {
  EXPECT_EQ(result.completed + result.failed_over + result.dropped +
                result.shed,
            result.arrivals);
}

// Every issued hedge adds exactly one extra response, and exactly one of
// the pair (clone or primary) loses and is discarded — so after the run
// drains, cancellations equal issues and wins are a subset.
void ExpectHedgeBalance(const ExperimentResult& result) {
  EXPECT_EQ(result.resilience.hedges_cancelled,
            result.resilience.hedges_issued);
  EXPECT_LE(result.resilience.hedges_won, result.resilience.hedges_issued);
}

// ---- Retry policy -----------------------------------------------------------

RetryConfig PlainRetry() {
  RetryConfig config;
  config.enabled = true;
  config.max_attempts = 4;
  config.base_backoff_ms = 10.0;
  config.backoff_multiplier = 2.0;
  config.max_backoff_ms = 500.0;
  config.jitter = 0.0;
  config.deadline_ms = 5000.0;
  return config;
}

TEST(RetryPolicy, DisabledDeniesEverything) {
  RetryConfig config = PlainRetry();
  config.enabled = false;
  RetryPolicy policy(config, Rng(1));
  EXPECT_FALSE(
      policy.NextBackoffMs(1, 0.0, SensitivityClass::kSensitive).has_value());
  EXPECT_EQ(policy.stats().exhausted, 1u);
}

TEST(RetryPolicy, ExponentialBackoffUntilAttemptsExhausted) {
  RetryPolicy policy(PlainRetry(), Rng(1));
  EXPECT_DOUBLE_EQ(
      *policy.NextBackoffMs(1, 0.0, SensitivityClass::kSensitive), 10.0);
  EXPECT_DOUBLE_EQ(
      *policy.NextBackoffMs(2, 0.0, SensitivityClass::kSensitive), 20.0);
  EXPECT_DOUBLE_EQ(
      *policy.NextBackoffMs(3, 0.0, SensitivityClass::kSensitive), 40.0);
  // Attempt 4 would be the fifth total attempt: beyond max_attempts.
  EXPECT_FALSE(
      policy.NextBackoffMs(4, 0.0, SensitivityClass::kSensitive).has_value());
  EXPECT_EQ(policy.stats().granted, 3u);
  EXPECT_EQ(policy.stats().exhausted, 1u);
}

TEST(RetryPolicy, DeadlineDeniesLateRetries) {
  RetryPolicy policy(PlainRetry(), Rng(1));
  EXPECT_FALSE(policy.NextBackoffMs(1, 4995.0, SensitivityClass::kSensitive)
                   .has_value());
  EXPECT_TRUE(policy.NextBackoffMs(1, 100.0, SensitivityClass::kSensitive)
                  .has_value());
}

TEST(RetryPolicy, PerClassBudgetIsIndependent) {
  RetryConfig config = PlainRetry();
  config.budget_per_class = 1;
  RetryPolicy policy(config, Rng(1));
  EXPECT_TRUE(
      policy.NextBackoffMs(1, 0.0, SensitivityClass::kSensitive).has_value());
  EXPECT_FALSE(
      policy.NextBackoffMs(1, 0.0, SensitivityClass::kSensitive).has_value());
  // A different class draws from its own budget.
  EXPECT_TRUE(policy.NextBackoffMs(1, 0.0, SensitivityClass::kTooFastToMatter)
                  .has_value());
  EXPECT_EQ(policy.BudgetSpent(SensitivityClass::kSensitive), 1u);
}

TEST(RetryPolicy, JitterIsSeededAndBounded) {
  RetryConfig config = PlainRetry();
  config.jitter = 0.2;
  RetryPolicy a(config, Rng(42));
  RetryPolicy b(config, Rng(42));
  for (int k = 1; k <= 3; ++k) {
    const auto ba = a.NextBackoffMs(k, 0.0, SensitivityClass::kSensitive);
    const auto bb = b.NextBackoffMs(k, 0.0, SensitivityClass::kSensitive);
    ASSERT_TRUE(ba.has_value());
    EXPECT_DOUBLE_EQ(*ba, *bb);  // Same seed, same stream.
    const double nominal = 10.0 * (1 << (k - 1));
    EXPECT_GE(*ba, nominal * 0.8);
    EXPECT_LE(*ba, nominal * 1.2);
  }
}

TEST(RetryPolicy, ValidatesConfig) {
  RetryConfig bad = PlainRetry();
  bad.max_attempts = 0;
  EXPECT_THROW(RetryPolicy(bad, Rng(1)), std::invalid_argument);
  bad = PlainRetry();
  bad.jitter = 1.0;
  EXPECT_THROW(RetryPolicy(bad, Rng(1)), std::invalid_argument);
}

// ---- Circuit breaker --------------------------------------------------------

BreakerConfig FastBreaker() {
  BreakerConfig config;
  config.enabled = true;
  config.window = 8;
  config.min_samples = 4;
  config.failure_rate_to_open = 0.5;
  config.open_ms = 100.0;
  config.half_open_probes = 2;
  return config;
}

TEST(CircuitBreaker, OpensOnWindowedFailureRateAndRecloses) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(static_cast<double>(i));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(10.0));
  EXPECT_EQ(breaker.stats().rejections, 1u);
  // Cool-down elapsed: the next request is admitted as a half-open probe.
  EXPECT_TRUE(breaker.AllowRequest(150.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(151.0);
  EXPECT_TRUE(breaker.AllowRequest(151.5));  // Second probe slot.
  breaker.RecordSuccess(152.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().opens, 1u);
  EXPECT_EQ(breaker.stats().half_opens, 1u);
  EXPECT_EQ(breaker.stats().closes, 1u);
}

TEST(CircuitBreaker, ProbeFailureReopens) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(static_cast<double>(i));
  ASSERT_TRUE(breaker.AllowRequest(150.0));
  breaker.RecordFailure(151.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().opens, 2u);
}

TEST(CircuitBreaker, WouldAllowHasNoSideEffects) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(static_cast<double>(i));
  EXPECT_FALSE(breaker.WouldAllow(10.0));
  EXPECT_TRUE(breaker.WouldAllow(150.0));  // Cool-down elapsed...
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);  // ...no probe.
  EXPECT_EQ(breaker.stats().rejections, 0u);
}

TEST(CircuitBreaker, DisabledAlwaysAllows) {
  BreakerConfig config = FastBreaker();
  config.enabled = false;
  CircuitBreaker breaker(config);
  for (int i = 0; i < 16; ++i) breaker.RecordFailure(static_cast<double>(i));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(0.0));
}

TEST(CircuitBreaker, TransitionHookSeesEveryEdge) {
  CircuitBreaker breaker(FastBreaker());
  std::vector<std::pair<CircuitBreaker::State, CircuitBreaker::State>> edges;
  breaker.SetTransitionHook([&edges](CircuitBreaker::State from,
                                     CircuitBreaker::State to, double) {
    edges.emplace_back(from, to);
  });
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(static_cast<double>(i));
  ASSERT_TRUE(breaker.AllowRequest(150.0));
  breaker.RecordSuccess(151.0);
  ASSERT_TRUE(breaker.AllowRequest(151.5));
  breaker.RecordSuccess(152.0);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].second, CircuitBreaker::State::kOpen);
  EXPECT_EQ(edges[1].second, CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(edges[2].second, CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenCapsConcurrentProbes) {
  CircuitBreaker breaker(FastBreaker());  // half_open_probes = 2.
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(static_cast<double>(i));
  // Cool-down elapsed: exactly two probe slots, further requests rejected
  // until an outcome frees one.
  EXPECT_TRUE(breaker.AllowRequest(150.0));
  EXPECT_TRUE(breaker.AllowRequest(150.0));
  EXPECT_FALSE(breaker.AllowRequest(150.0));
  EXPECT_FALSE(breaker.WouldAllow(150.0));
  EXPECT_EQ(breaker.stats().rejections, 1u);
  breaker.RecordSuccess(151.0);  // Frees a slot (1 success so far).
  EXPECT_TRUE(breaker.WouldAllow(151.0));
  EXPECT_TRUE(breaker.AllowRequest(151.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreaker, StaleSlowSuccessCannotRaceTheProbes) {
  CircuitBreaker breaker(FastBreaker());  // half_open_probes = 2.
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(static_cast<double>(i));
  ASSERT_TRUE(breaker.AllowRequest(150.0));  // Probe 1.
  breaker.RecordSuccess(151.0);              // Probe 1 wins: 1/2.
  // A read issued before the breaker opened finally completes — slow, so
  // the executor records it as a failure. No probe is outstanding: the
  // stale outcome must not reopen the breaker under the live probes.
  breaker.RecordFailure(151.5);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // Nor may stale successes close it: still only probe outcomes count.
  breaker.RecordSuccess(151.6);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.AllowRequest(152.0));  // Probe 2.
  breaker.RecordSuccess(153.0);              // 2/2: verified recovery.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().opens, 1u);  // No half-open double-transition.
}

// Seeded property: arbitrary interleavings of probe admissions and
// (possibly stale) outcomes during half-open. The breaker must (a) never
// admit more concurrent probes than `half_open_probes`, (b) ignore
// outcomes that arrive with no probe outstanding, and (c) replay the same
// op sequence bit-identically.
TEST(CircuitBreakerProperties, HalfOpenReentryUnderRacingOutcomes) {
  proptest::Config pconfig;
  pconfig.iterations = 30;
  proptest::Check(
      "breaker-half-open-reentry",
      [](Rng& rng) {
        BreakerConfig config = FastBreaker();
        config.half_open_probes = static_cast<int>(rng.UniformInt(1, 3));
        CircuitBreaker breaker(config);
        CircuitBreaker replay(config);
        for (int i = 0; i < 4; ++i) {
          breaker.RecordFailure(static_cast<double>(i));
          replay.RecordFailure(static_cast<double>(i));
        }
        double now = 150.0;  // Past the 100 ms cool-down.
        int outstanding = 0;  // Test-side mirror of admitted probes.
        for (int op = 0; op < 200; ++op) {
          now += 1.0;
          const auto before = breaker.state();
          switch (rng.UniformInt(0, 2)) {
            case 0: {
              const bool admitted = breaker.AllowRequest(now);
              ASSERT_EQ(replay.AllowRequest(now), admitted);
              if (before == CircuitBreaker::State::kHalfOpen) {
                // (a) the cap: admit iff a slot is free.
                ASSERT_EQ(admitted, outstanding < config.half_open_probes);
              }
              if (admitted && breaker.state() ==
                                  CircuitBreaker::State::kHalfOpen) {
                if (before != CircuitBreaker::State::kHalfOpen) {
                  outstanding = 0;  // Fresh half-open entry.
                }
                ++outstanding;
              }
              break;
            }
            case 1:
            default: {
              const bool failure = rng.UniformInt(0, 1) == 1;
              if (failure) {
                breaker.RecordFailure(now);
                replay.RecordFailure(now);
              } else {
                breaker.RecordSuccess(now);
                replay.RecordSuccess(now);
              }
              if (before == CircuitBreaker::State::kHalfOpen) {
                if (outstanding == 0) {
                  // (b) stale outcome: no state change permitted.
                  ASSERT_EQ(breaker.state(), before);
                } else {
                  --outstanding;
                }
              }
              break;
            }
          }
          if (breaker.state() != CircuitBreaker::State::kHalfOpen) {
            outstanding = 0;
          }
          // (c) determinism: the twin sees identical transitions.
          ASSERT_EQ(replay.state(), breaker.state());
          ASSERT_EQ(replay.stats().opens, breaker.stats().opens);
          ASSERT_EQ(replay.stats().closes, breaker.stats().closes);
        }
      },
      pconfig);
}

TEST(CircuitBreaker, ValidatesConfig) {
  BreakerConfig bad = FastBreaker();
  bad.min_samples = 0;
  EXPECT_THROW(CircuitBreaker{bad}, std::invalid_argument);
  bad = FastBreaker();
  bad.failure_rate_to_open = 1.5;
  EXPECT_THROW(CircuitBreaker{bad}, std::invalid_argument);
}

// ---- Adaptive slowness threshold -------------------------------------------

TEST(SlownessTracker, FloorAppliesUntilBaselineExists) {
  BreakerConfig config = FastBreaker();
  config.slow_ms = 1000.0;
  config.slow_factor = 4.0;
  SlownessTracker tracker(config);
  EXPECT_DOUBLE_EQ(tracker.ThresholdMs(), 1000.0);
  EXPECT_TRUE(tracker.RecordAndClassify(1500.0));   // Above floor: slow.
  EXPECT_FALSE(tracker.RecordAndClassify(200.0));   // Seeds the baseline.
  EXPECT_DOUBLE_EQ(tracker.baseline_ms(), 200.0);
}

TEST(SlownessTracker, DeliberatelySlowTargetKeepsHigherTripPoint) {
  BreakerConfig config = FastBreaker();
  config.slow_ms = 1000.0;
  config.slow_factor = 4.0;
  SlownessTracker tracker(config);
  // A sacrificial replica serving ~2 s reads is healthy, not failing: once
  // the baseline adapts, the trip point sits at 4x its own pace.
  EXPECT_FALSE(tracker.RecordAndClassify(900.0));
  for (int i = 0; i < 64; ++i) {
    tracker.RecordAndClassify(2000.0);
  }
  EXPECT_NEAR(tracker.baseline_ms(), 2000.0, 50.0);
  // A 7 s read sits under 4x the ~2 s baseline: healthy-for-this-replica,
  // and as a non-slow sample it nudges the baseline (and trip point) up.
  EXPECT_FALSE(tracker.RecordAndClassify(7000.0));
  EXPECT_TRUE(tracker.RecordAndClassify(10000.0));  // Fault-grade.
}

TEST(SlownessTracker, SlowSamplesDoNotPoisonBaseline) {
  BreakerConfig config = FastBreaker();
  config.slow_ms = 1000.0;
  config.slow_factor = 4.0;
  SlownessTracker tracker(config);
  EXPECT_FALSE(tracker.RecordAndClassify(500.0));
  const double before = tracker.baseline_ms();
  // A sustained fault keeps tripping: its own samples never lift the
  // threshold it is judged against.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(tracker.RecordAndClassify(50000.0));
  }
  EXPECT_DOUBLE_EQ(tracker.baseline_ms(), before);
}

// ---- QoE-aware admission ----------------------------------------------------

// Finds an external delay classified into `cls` by the trace QoE model.
std::optional<double> DelayInClass(SensitivityClass cls) {
  for (double d = 0.0; d <= 30000.0; d += 50.0) {
    if (TraceQoe().Classify(d) == cls) return d;
  }
  return std::nullopt;
}

AdmissionConfig FastAdmission() {
  AdmissionConfig config;
  config.enabled = true;
  config.shed_depth = 8;
  config.downgrade_depth = 16;
  return config;
}

TEST(Admission, SensitiveRequestsAlwaysAdmitted) {
  AdmissionController admission(FastAdmission(), TraceQoe());
  const auto sensitive = DelayInClass(SensitivityClass::kSensitive);
  ASSERT_TRUE(sensitive.has_value());
  EXPECT_EQ(admission.Decide(*sensitive, 1000), AdmissionDecision::kAdmit);
}

TEST(Admission, ShedsPastCliffFirstThenDowngradesTooFast) {
  AdmissionController admission(FastAdmission(), TraceQoe());
  const auto slow = DelayInClass(SensitivityClass::kTooSlowToMatter);
  const auto fast = DelayInClass(SensitivityClass::kTooFastToMatter);
  ASSERT_TRUE(slow.has_value());
  ASSERT_TRUE(fast.has_value());
  // Below both depths: everyone is admitted.
  EXPECT_EQ(admission.Decide(*slow, 0), AdmissionDecision::kAdmit);
  EXPECT_EQ(admission.Decide(*fast, 0), AdmissionDecision::kAdmit);
  // Past shed_depth, the past-the-cliff request forfeits ~nothing: shed.
  // The too-fast request still tolerates queueing: admitted.
  EXPECT_EQ(admission.Decide(*slow, 8), AdmissionDecision::kShed);
  EXPECT_EQ(admission.Decide(*fast, 8), AdmissionDecision::kAdmit);
  // Past downgrade_depth the too-fast request is demoted, never shed.
  EXPECT_EQ(admission.Decide(*fast, 16), AdmissionDecision::kDowngrade);
  EXPECT_EQ(admission.stats().shed, 1u);
  EXPECT_EQ(admission.stats().downgraded, 1u);
}

TEST(Admission, DisabledAdmitsEverything) {
  AdmissionConfig config = FastAdmission();
  config.enabled = false;
  AdmissionController admission(config, TraceQoe());
  const auto slow = DelayInClass(SensitivityClass::kTooSlowToMatter);
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(admission.Decide(*slow, 1 << 20), AdmissionDecision::kAdmit);
}

// ---- Correlated fault grammar ----------------------------------------------

TEST(CorrelatedFaults, ThenChildInheritsParentWindowEnd) {
  const auto plan = fault::FaultPlan::Parse(
      "partition db r=0 t=[25s,50s] then overload db x2 survivors for=30s");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].kind, fault::FaultKind::kPartitionReplica);
  EXPECT_EQ(plan.faults[0].replica, 0);
  EXPECT_EQ(plan.faults[1].kind, fault::FaultKind::kOverloadReplica);
  EXPECT_EQ(plan.faults[1].replica, fault::kSurvivorsReplica);
  EXPECT_EQ(plan.faults[1].follows, 0);
  // The child starts when the parent's window ends.
  EXPECT_DOUBLE_EQ(plan.faults[1].start_ms, 50000.0);
  EXPECT_DOUBLE_EQ(plan.faults[1].end_ms, 80000.0);
}

TEST(CorrelatedFaults, CanonicalTextRoundTrips) {
  const std::string specs[] = {
      "partition db r=0 t=[25s,50s] then overload db x2 survivors for=30s",
      "delay db +500ms r=1 t=[10s,20s] then partition db r=1 for=5s",
      "crash ctrl t=25s for=25s; overload broker x3 t=[30s,60s]",
  };
  for (const auto& spec : specs) {
    const auto plan = fault::FaultPlan::Parse(spec);
    const std::string canonical = plan.ToString();
    EXPECT_EQ(fault::FaultPlan::Parse(canonical).ToString(), canonical)
        << "spec: " << spec;
  }
}

TEST(CorrelatedFaults, SurvivorsRequiresTargetedParent) {
  EXPECT_THROW(fault::FaultPlan::Parse("overload db x2 survivors"),
               std::invalid_argument);
}

// ---- DB experiment with the full layer --------------------------------------

TEST(DbResilience, ServesEverythingAcrossPartition) {
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.fault_plan =
      fault::FaultPlan::Parse("partition db r=1 t=[1s,4s]");
  config.common.resilience = ResilienceConfig::DbAllOn();
  const auto records = LoadedWorkload(800, 23, 90.0);
  const auto result = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_EQ(result.outcomes.size(), records.size());
  ExpectConservation(result);
  ExpectHedgeBalance(result);
  EXPECT_GT(result.failed_over, 0u);
}

TEST(DbResilience, HedgesFireAndBalance) {
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.resilience = ResilienceConfig::DbAllOn();
  // Hedge aggressively relative to this testbed's ~120 ms service times so
  // the clone path actually exercises under load.
  config.common.resilience.hedge.sensitive_delay_ms = 150.0;
  config.common.resilience.hedge.insensitive_delay_ms = 400.0;
  const auto records = LoadedWorkload(1200, 29, 115.0);
  const auto result = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_GT(result.resilience.hedges_issued, 0u);
  ExpectHedgeBalance(result);
  ExpectConservation(result);
}

TEST(DbResilience, BreakerOpensShowUpInStatsAndTelemetry) {
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.collect_telemetry = true;
  config.common.fault_plan =
      fault::FaultPlan::Parse("delay db +20s r=0 t=[1s,4s]");
  config.common.resilience = ResilienceConfig::DbAllOn();
  // Pin the slow classification to an absolute threshold the fault clearly
  // breaches so the open is deterministic in this small run.
  config.common.resilience.breaker.slow_ms = 2000.0;
  config.common.resilience.breaker.slow_factor = 1.0;
  const auto records = LoadedWorkload(800, 31, 90.0);
  const auto result = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_GT(result.resilience.breaker_opens, 0u);
  const std::string telemetry = result.telemetry.SerializeText();
  EXPECT_NE(telemetry.find("db.resilience.breaker_transitions"),
            std::string::npos);
  EXPECT_NE(telemetry.find("db.resilience.hedges"), std::string::npos);
}

TEST(DbResilience, TwoRunsAreByteIdentical) {
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.collect_telemetry = true;
  config.common.fault_plan = fault::FaultPlan::Parse(
      "delay db +800ms r=0 t=[1s,3s]; partition db r=2 t=[2s,4s]");
  config.common.resilience = ResilienceConfig::DbAllOn();
  const auto records = LoadedWorkload(600, 37, 90.0);
  const auto a = RunDbExperiment(records, TraceQoe(), config);
  const auto b = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  EXPECT_EQ(a.telemetry.SerializeText(), b.telemetry.SerializeText());
}

// ---- Processor-sharing cloning model ----------------------------------------

using resilience::CloningModel;
using resilience::CloningModelConfig;
using resilience::CloningPrediction;
using resilience::HedgeMode;

TEST(CloningModel, MinOfTwoMeanMatchesBruteForce) {
  proptest::Config pconfig;
  pconfig.iterations = 40;
  proptest::Check(
      "min-of-two-brute-force",
      [](Rng& rng) {
        const int n = static_cast<int>(rng.UniformInt(1, 40));
        std::vector<double> samples;
        samples.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          samples.push_back(rng.Uniform(1.0, 500.0));
        }
        std::sort(samples.begin(), samples.end());
        double brute = 0.0;
        for (const double a : samples) {
          for (const double b : samples) brute += std::min(a, b);
        }
        brute /= static_cast<double>(n) * static_cast<double>(n);
        const double fast = CloningModel::MinOfTwoMean(samples);
        // Same arithmetic up to summation order.
        EXPECT_NEAR(fast, brute, 1e-9 * brute);
      },
      pconfig);
}

TEST(CloningModel, MinOfTwoMeanEdgeCases) {
  EXPECT_EQ(CloningModel::MinOfTwoMean({}), 0.0);
  const double single[] = {42.0};
  EXPECT_EQ(CloningModel::MinOfTwoMean(single), 42.0);
  const double ties[] = {100.0, 100.0};
  EXPECT_EQ(CloningModel::MinOfTwoMean(ties), 100.0);
}

TEST(CloningModel, DeterministicServiceNeverProfits) {
  // m = 1: the clone finishes exactly when the primary would, so the model
  // must keep every gate shut at any utilization.
  const CloningModel model{CloningModelConfig{}};
  for (const double util : {0.0, 0.3, 0.8}) {
    const CloningPrediction p = model.Predict(100.0, 100.0, util);
    EXPECT_EQ(p.critical_utilization, 0.0);
    EXPECT_EQ(p.max_hedge_fraction, 0.0);
    EXPECT_EQ(p.predicted_gain_ms, 0.0);
    EXPECT_EQ(p.max_target_load, 0.0);
  }
}

TEST(CloningModel, ExponentialTailHedgesToTheCapBelowTheKnee) {
  // m = 1/2 (the exponential distribution's min-of-two ratio): rho(h) is
  // flat in h, so T(h) falls monotonically and the argmin is the cap.
  const CloningModel model{CloningModelConfig{}};
  const CloningPrediction p = model.Predict(100.0, 50.0, 0.3);
  EXPECT_EQ(p.critical_utilization, 1.0);
  EXPECT_DOUBLE_EQ(p.max_hedge_fraction, model.config().max_fraction_cap);
  const double expected_gain =
      CloningModel::ResponseMs(100.0, 50.0, 0.3, 0.0) -
      CloningModel::ResponseMs(100.0, 50.0, 0.3,
                               model.config().max_fraction_cap);
  EXPECT_DOUBLE_EQ(p.predicted_gain_ms, expected_gain);
  EXPECT_GT(p.predicted_gain_ms, 0.0);
  EXPECT_DOUBLE_EQ(p.max_target_load, model.config().stability_margin);
}

TEST(CloningModel, KneeConditionFlipsTheBudget) {
  // m = 3/4 puts the knee at rho* = 1/3: below it cloning is predicted to
  // pay, above it the budget stays shut.
  const CloningModel model{CloningModelConfig{}};
  const CloningPrediction below = model.Predict(100.0, 75.0, 0.2);
  EXPECT_GT(below.max_hedge_fraction, 0.0);
  EXPECT_GT(below.predicted_gain_ms, 0.0);
  const CloningPrediction above = model.Predict(100.0, 75.0, 0.8);
  EXPECT_EQ(above.max_hedge_fraction, 0.0);
  EXPECT_EQ(above.predicted_gain_ms, 0.0);
  const double m = 75.0 / 100.0;
  EXPECT_DOUBLE_EQ(above.critical_utilization, (1.0 - m) / m);
  EXPECT_DOUBLE_EQ(above.max_target_load, (1.0 - m) / m);
}

TEST(CloningModel, StabilityMarginKeepsTheDerivedLoadFeasible) {
  // m = 0.6 at rho0 = 0.85: T'(0) > 0 (above the knee) and the post-hedge
  // load crosses the margin early in the grid — both keep h* = 0, and the
  // idle-capacity gate is the knee itself (below the margin).
  const CloningModel model{CloningModelConfig{}};
  const CloningPrediction p = model.Predict(100.0, 60.0, 0.85);
  EXPECT_EQ(p.max_hedge_fraction, 0.0);
  EXPECT_EQ(p.predicted_gain_ms, 0.0);
  const double m = 60.0 / 100.0;
  EXPECT_DOUBLE_EQ(p.max_target_load, (1.0 - m) / m);
  EXPECT_LT(p.max_target_load, model.config().stability_margin);
}

TEST(CloningModel, PredictFromBucketizerMatchesSampleMoments) {
  const CloningModel model{CloningModelConfig{}};
  Bucketizer window(32, 500.0);
  for (const double s : {120.0, 95.0, 310.0, 87.0, 140.0, 260.0, 101.0}) {
    window.Add(s);
  }
  const std::span<const double> samples = window.samples();
  double sum = 0.0;
  for (const double s : samples) sum += s;
  const double mean = sum / static_cast<double>(samples.size());
  const CloningPrediction from_summary = model.Predict(window, 0.4);
  const CloningPrediction from_moments =
      model.Predict(mean, CloningModel::MinOfTwoMean(samples), 0.4);
  EXPECT_EQ(from_summary.mean_service_ms, from_moments.mean_service_ms);
  EXPECT_EQ(from_summary.min_of_two_ms, from_moments.min_of_two_ms);
  EXPECT_EQ(from_summary.max_hedge_fraction, from_moments.max_hedge_fraction);
  EXPECT_EQ(from_summary.max_target_load, from_moments.max_target_load);
  EXPECT_EQ(from_summary.predicted_gain_ms, from_moments.predicted_gain_ms);

  Bucketizer empty(32, 500.0);
  const CloningPrediction cold = model.Predict(empty, 0.4);
  EXPECT_EQ(cold.max_hedge_fraction, 0.0);
  EXPECT_EQ(cold.predicted_gain_ms, 0.0);
}

TEST(CloningModel, ValidatesConfig) {
  const auto expect_throws = [](auto mutate) {
    CloningModelConfig config;
    mutate(config);
    EXPECT_THROW(CloningModel{config}, std::invalid_argument);
  };
  expect_throws([](CloningModelConfig& c) { c.window_ms = 0.0; });
  expect_throws([](CloningModelConfig& c) { c.target_buckets = 0; });
  expect_throws([](CloningModelConfig& c) { c.max_span_ms = -1.0; });
  expect_throws([](CloningModelConfig& c) { c.min_samples = 1; });
  expect_throws([](CloningModelConfig& c) { c.max_fraction_cap = 0.0; });
  expect_throws([](CloningModelConfig& c) { c.max_fraction_cap = 1.5; });
  expect_throws([](CloningModelConfig& c) { c.fraction_grid = 1; });
  expect_throws([](CloningModelConfig& c) { c.stability_margin = 1.0; });
  expect_throws([](CloningModelConfig& c) { c.min_gain_fraction = -0.1; });
  expect_throws([](CloningModelConfig& c) { c.min_gain_fraction = 1.0; });
}

// ---- Model-driven hedging in the db testbed ---------------------------------

// ModelDriven() with the same aggressive hedge delays the static hedging
// tests use (well inside this testbed's ~120 ms service times) and a model
// window short enough that a 10–15 s run rederives the gates several times.
DbExperimentConfig ModelDrivenDbConfig() {
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.collect_telemetry = true;
  config.common.resilience = ResilienceConfig::ModelDriven();
  config.common.resilience.hedge.sensitive_delay_ms = 150.0;
  config.common.resilience.hedge.insensitive_delay_ms = 400.0;
  config.common.resilience.hedge.model.window_ms = 1000.0;
  config.common.resilience.hedge.model.min_samples = 16;
  return config;
}

double FinalGauge(const ExperimentResult& result, const std::string& name) {
  for (const auto& gauge : result.telemetry.gauges) {
    if (gauge.name == name) return gauge.value;
  }
  ADD_FAILURE() << "gauge not exported: " << name;
  return 0.0;
}

TEST(DbModelDriven, RecomputesAndExportsReplicaSnapshots) {
  const auto records = LoadedWorkload(1200, 29, 115.0);
  const auto result = RunDbExperiment(records, TraceQoe(), ModelDrivenDbConfig());
  ExpectConservation(result);
  ExpectHedgeBalance(result);
  EXPECT_GT(result.resilience.model_recomputes, 0u);
  // The per-replica resilience snapshot — the placement co-design's
  // controller inputs — and the model gates are all exported.
  const std::string telemetry = result.telemetry.SerializeText();
  EXPECT_NE(telemetry.find("db.resilience.model.recomputes"),
            std::string::npos);
  EXPECT_NE(telemetry.find("db.resilience.model.hedge_fraction"),
            std::string::npos);
  EXPECT_NE(telemetry.find("db.resilience.replica0.utilization"),
            std::string::npos);
  EXPECT_NE(telemetry.find("db.resilience.replica0.penalty_ms"),
            std::string::npos);
}

TEST(DbModelDriven, StaticModeHasNoModelArtifacts) {
  // kStatic must stay byte-identical to the pre-model layer: no model
  // counters in the serialization, no model or snapshot series in the
  // telemetry export.
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.collect_telemetry = true;
  config.common.resilience = ResilienceConfig::DbAllOn();
  config.common.resilience.hedge.sensitive_delay_ms = 150.0;
  config.common.resilience.hedge.insensitive_delay_ms = 400.0;
  const auto records = LoadedWorkload(1200, 29, 115.0);
  const auto result = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_GT(result.resilience.hedges_issued, 0u);
  EXPECT_EQ(result.resilience.model_recomputes, 0u);
  EXPECT_EQ(result.Serialize().find("model_recomputes"), std::string::npos);
  const std::string telemetry = result.telemetry.SerializeText();
  EXPECT_EQ(telemetry.find("db.resilience.model."), std::string::npos);
  EXPECT_EQ(telemetry.find("db.resilience.replica"), std::string::npos);
}

TEST(DbModelDriven, TwoRunsAreByteIdentical) {
  auto config = ModelDrivenDbConfig();
  config.common.fault_plan = fault::FaultPlan::Parse(
      "delay db +800ms r=0 t=[1s,3s]; partition db r=2 t=[2s,4s]");
  const auto records = LoadedWorkload(600, 37, 90.0);
  const auto a = RunDbExperiment(records, TraceQoe(), config);
  const auto b = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_GT(a.resilience.model_recomputes, 0u);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  EXPECT_EQ(a.telemetry.SerializeText(), b.telemetry.SerializeText());
}

// Validation config for the predicted-vs-measured property: zero hedge
// delay (the clone is issued the moment the primary is — synchronized
// cloning, the exact mechanism the PS model describes), no static floor,
// fraction cap 1.0, and the insensitive class (the deliberately slow
// sacrificial replica's traffic) kept out of the hedge path entirely. The
// model's decisions are then the only reason a clone is ever sent, so the
// measured delay delta against a hedge-off run is directly attributable to
// the prediction.
DbExperimentConfig SynchronizedCloneDbConfig() {
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.collect_telemetry = true;
  config.common.resilience = ResilienceConfig::ModelDriven();
  auto& hedge = config.common.resilience.hedge;
  hedge.sensitive_delay_ms = 0.001;  // Synchronized clone.
  hedge.insensitive_delay_ms = 0.0;  // Never hedge the insensitive class.
  hedge.max_hedge_fraction = 0.0;    // No static floor: the model decides.
  hedge.max_target_load = 0.0;
  hedge.model.window_ms = 1000.0;
  hedge.model.min_samples = 16;
  hedge.model.max_fraction_cap = 1.0;
  hedge.model.min_gain_fraction = 0.0;
  return config;
}

// The tentpole property: sweep offered load across the capacity knee under
// synchronized cloning and check the PS model's predicted hedge gain
// against the measured gain (mean server delay without hedging minus with
// model-driven hedging). Below the knee the model opens the budget and the
// measured gain must be positive and within a bounded factor of the
// coverage-scaled prediction; above the knee it keeps the budget shut, no
// clone is ever issued, and the two runs must measure identically.
TEST(DbModelDriven, PredictedGainTracksMeasuredAcrossLoadSweep) {
  bool saw_open = false;
  bool saw_shut = false;
  for (const double rps : {20.0, 30.0, 60.0, 90.0, 120.0}) {
    SCOPED_TRACE("rps=" + std::to_string(rps));
    const auto records = LoadedWorkload(
        static_cast<std::size_t>(rps * 12.0), 29, rps);
    auto cloned = SynchronizedCloneDbConfig();
    auto unhedged = SynchronizedCloneDbConfig();
    unhedged.common.resilience.hedge.enabled = false;
    const auto on = RunDbExperiment(records, TraceQoe(), cloned);
    const auto off = RunDbExperiment(records, TraceQoe(), unhedged);
    ASSERT_GT(on.resilience.model_recomputes, 0u);
    const double predicted =
        FinalGauge(on, "db.resilience.model.predicted_gain_ms");
    const double fraction =
        FinalGauge(on, "db.resilience.model.hedge_fraction");
    const double coverage =
        static_cast<double>(on.resilience.hedges_issued) /
        static_cast<double>(on.arrivals);
    const double measured =
        off.mean_server_delay_ms - on.mean_server_delay_ms;
    if (on.resilience.hedges_issued == 0) {
      saw_shut = true;
      // Above the knee the model never opens: no clone is issued, so the
      // runs are decision-identical and must measure identically
      // (sign-correct with zero error).
      EXPECT_EQ(fraction, 0.0);
      EXPECT_EQ(on.mean_server_delay_ms, off.mean_server_delay_ms);
      EXPECT_EQ(on.mean_qoe, off.mean_qoe);
    } else if (fraction > 0.0) {
      saw_open = true;
      // Well below the knee the budget is open at every derivation.
      // Sign-correct: opening where the model predicts a gain must
      // measure as one...
      EXPECT_GT(measured, 0.0);
      // ...and the promise must materialize: the prediction is per hedged
      // request at coverage h*, the measurement is over all arrivals, so
      // scale by the realized coverage before comparing. The bound is
      // one-sided by design: with the truthful busy-period rho0 the PS
      // model under-promises — it prices the clone's utilization cost
      // exactly but only values the min-of-two service draw, not the
      // rescue of requests routed into the deliberately slow replica — so
      // the measured gain may exceed the scaled prediction freely but must
      // realize at least half of it. (The retired arrival-sampled rho0 was
      // biased high, inflating T(0) until the over-promise happened to
      // cancel; that symmetric-error calibration died with the proxy.)
      const double scaled = predicted * coverage / fraction;
      EXPECT_GT(scaled, 0.0);
      EXPECT_GT(measured, 0.5 * scaled);
    } else {
      // Straddling the knee: the model opened in the windows it measured
      // below the knee and shut once load crossed it. Only hedges from
      // predicted-profitable windows fired, so the net effect must still
      // be a gain — but no tight error bound applies this close to the
      // knee.
      EXPECT_GT(measured, 0.0);
    }
  }
  // The sweep genuinely crossed the knee.
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_shut);
}

// Regression for the utilization estimator feeding CloningModel::Predict.
// The retired proxy averaged (jobs in system / capacity knee) sampled at
// arrival instants; for bursty traffic every sample lands inside the busy
// period, so a window that is >99% idle read as near-saturated and the
// model kept the hedge budget shut. The busy-period estimator integrates
// ∫ in_service dt, so it must match the ground-truth utilization — total
// service work over window capacity — essentially exactly.
TEST(BusyPeriodUtilization, MatchesGroundTruthWhereArrivalSamplingMisGated) {
  EventLoop loop;
  db::ClusterParams params;  // 3 replicas, knee = 8 × 3 = 24 busy-servers.
  db::Cluster cluster(loop, params, Rng(11));
  cluster.LoadDataset(256, 16);
  db::ReadExecutor exec(cluster,
                        std::make_shared<db::LoadBalancedSelector>());
  ResilienceConfig rc = ResilienceConfig::ModelDriven();
  rc.hedge.model.window_ms = 10000.0;
  rc.hedge.model.min_samples = 2;
  exec.EnableResilience(rc, Rng(5));  // Window opens at t = 0.

  // Burst: the window's entire work arrives in its first 20 ms, so every
  // arrival stares at the queue the burst itself built.
  constexpr int kBurst = 40;
  const double knee =
      params.capacity * static_cast<double>(params.replica_groups);
  double proxy_sum = 0.0;        // What the retired estimator accumulated.
  double burst_service_ms = 0.0; // Ground-truth busy work, from timings.
  int completed = 0;
  for (int i = 0; i < kBurst; ++i) {
    loop.Schedule(0.5 * static_cast<double>(i), [&, i] {
      double in_system = 0.0;
      for (const double load : cluster.View().loads) in_system += load;
      proxy_sum += in_system / knee;
      exec.ExecuteRangeRead(
          db::DbRequest{.id = static_cast<RequestId>(i),
                        .external_delay_ms = 50.0},
          [&](db::ReadResult r) {
            burst_service_ms += r.timing.ServiceDelayMs();
            ++completed;
          });
    });
  }
  // A tail read just past the window boundary triggers the recompute; it
  // is submitted after the budget derivation reads the busy integral, so
  // it contributes nothing to the window under test.
  const double recompute_ms = 10500.0;
  loop.Schedule(recompute_ms, [&] {
    exec.ExecuteRangeRead(
        db::DbRequest{.id = kBurst, .external_delay_ms = 50.0},
        [](db::ReadResult) {});
  });
  loop.Run();

  ASSERT_EQ(completed, kBurst);
  ASSERT_GE(exec.resilience_stats().model_recomputes, 1u);
  const double truth = burst_service_ms / (recompute_ms * knee);
  const double rho = exec.last_prediction().utilization;
  const double proxy = proxy_sum / static_cast<double>(kBurst);
  // The busy-period estimate agrees with ground truth to rounding: the
  // burst drains mid-window, so the integral is exactly the served work.
  EXPECT_NEAR(rho, truth, 1e-9 + 0.01 * truth);
  // The arrival-sampled proxy read the idle window as mostly-busy — off by
  // well over an order of magnitude, and on the wrong side of the model's
  // cloning knee: it would have kept the budget shut where the true
  // operating point profits from cloning.
  EXPECT_GT(proxy, 20.0 * truth);
  const double critical = exec.last_prediction().critical_utilization;
  EXPECT_LT(rho, critical);
  EXPECT_GT(proxy, critical);
}

// Model-driven budgets must never lose mean QoE against the hand-tuned
// static budgets on the stock Fig-18 scenarios (no fault, the paper's
// controller crash, a replica delay, a replica partition).
TEST(DbModelDriven, NeverLosesMeanQoeOnStockFig18Scenarios) {
  const std::vector<std::string> scenarios = {
      "", "crash ctrl t=3s for=3s", "delay db +800ms r=0 t=[1s,3s]",
      "partition db r=2 t=[2s,4s]"};
  for (const double rps : {60.0, 75.0, 90.0, 105.0}) {
    const auto records = LoadedWorkload(1200, 29, rps);
    for (const auto& spec : scenarios) {
      SCOPED_TRACE(spec.empty() ? "no fault at rps " + std::to_string(rps)
                                : spec + " at rps " + std::to_string(rps));
      auto static_config = ModelDrivenDbConfig();
      static_config.common.resilience.hedge.mode = HedgeMode::kStatic;
      auto model_config = ModelDrivenDbConfig();
      if (!spec.empty()) {
        static_config.common.fault_plan = fault::FaultPlan::Parse(spec);
        model_config.common.fault_plan = fault::FaultPlan::Parse(spec);
      }
      const auto static_run =
          RunDbExperiment(records, TraceQoe(), static_config);
      const auto model_run =
          RunDbExperiment(records, TraceQoe(), model_config);
      ExpectConservation(model_run);
      ExpectHedgeBalance(model_run);
      EXPECT_GE(model_run.mean_qoe, static_run.mean_qoe);
    }
  }
}

// ---- Broker experiment with the full layer ----------------------------------

TEST(BrokerResilience, RetriesRecoverDroppedPublishes) {
  const auto records = LoadedWorkload(800, 41);
  auto failing = FastBrokerConfig(BrokerPolicy::kE2e);
  failing.common.fault_plan =
      fault::FaultPlan::Parse("drop broker p=0.3 seed=5 t=[0s,10m]");
  auto resilient = failing;
  resilient.common.resilience = ResilienceConfig::BrokerAllOn();
  const auto off = RunBrokerExperiment(records, TraceQoe(), failing);
  const auto on = RunBrokerExperiment(records, TraceQoe(), resilient);
  ExpectConservation(off);
  ExpectConservation(on);
  EXPECT_GT(off.dropped, 0u);
  EXPECT_GT(on.resilience.retries, 0u);
  // Re-publishing with backoff recovers most faulted publishes.
  EXPECT_LT(on.dropped, off.dropped);
  EXPECT_GT(on.completed + on.failed_over, off.completed + off.failed_over);
}

TEST(BrokerResilience, AdmissionShedsOnlyPastTheCliff) {
  const auto records = LoadedWorkload(1500, 43, 90.0);
  auto config = FastBrokerConfig(BrokerPolicy::kE2e);
  config.common.fault_plan =
      fault::FaultPlan::Parse("overload broker x6 t=[1s,8s]");
  config.common.resilience = ResilienceConfig::BrokerAllOn();
  config.common.resilience.admission.shed_depth = 8;
  config.common.resilience.admission.downgrade_depth = 16;
  const auto result = RunBrokerExperiment(records, TraceQoe(), config);
  ExpectConservation(result);
  EXPECT_GT(result.resilience.shed, 0u);
  EXPECT_EQ(result.shed, result.resilience.shed);
  // Shed requests must all sit past the QoE cliff: their marginal QoE loss
  // is the smallest of any class.
  for (const auto& outcome : result.outcomes) {
    if (outcome.status == RequestStatus::kShed) {
      EXPECT_EQ(TraceQoe().Classify(outcome.external_delay_ms),
                SensitivityClass::kTooSlowToMatter);
    }
  }
}

TEST(BrokerResilience, TwoRunsAreByteIdentical) {
  auto config = FastBrokerConfig(BrokerPolicy::kE2e);
  config.common.collect_telemetry = true;
  config.common.fault_plan = fault::FaultPlan::Parse(
      "drop broker p=0.2 seed=9 t=[0s,10m]; overload broker x2 t=[1s,3s]");
  config.common.resilience = ResilienceConfig::BrokerAllOn();
  const auto records = LoadedWorkload(600, 47);
  const auto a = RunBrokerExperiment(records, TraceQoe(), config);
  const auto b = RunBrokerExperiment(records, TraceQoe(), config);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  EXPECT_EQ(a.telemetry.SerializeText(), b.telemetry.SerializeText());
}

// ---- Randomized-plan properties ---------------------------------------------

std::string RandomWindow(Rng& rng) {
  const std::int64_t start = rng.UniformInt(500, 2500);
  const std::int64_t length = rng.UniformInt(500, 2500);
  std::ostringstream os;
  os << " t=[" << start << "ms," << (start + length) << "ms]";
  return os.str();
}

std::string RandomDbPlan(Rng& rng) {
  std::ostringstream os;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      os << "delay db +" << rng.UniformInt(100, 3000) << "ms"
         << RandomWindow(rng);
      break;
    case 1:
      os << "overload db x" << rng.UniformInt(2, 5) << RandomWindow(rng);
      break;
    case 2:
      os << "partition db r=" << rng.UniformInt(0, 2) << RandomWindow(rng);
      break;
    default:
      os << "crash ctrl t=" << rng.UniformInt(500, 2000) << "ms for="
         << rng.UniformInt(500, 2000) << "ms";
      break;
  }
  return os.str();
}

std::string RandomBrokerPlan(Rng& rng) {
  std::ostringstream os;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      os << "drop broker p=0." << rng.UniformInt(1, 4) << " seed="
         << rng.UniformInt(1, 1000) << RandomWindow(rng);
      break;
    case 1:
      os << "delay broker +" << rng.UniformInt(50, 1000) << "ms"
         << RandomWindow(rng);
      break;
    default:
      os << "overload broker x" << rng.UniformInt(2, 5) << RandomWindow(rng);
      break;
  }
  return os.str();
}

TEST(ResilienceProperties, DbRandomPlansConserveAndReplay) {
  proptest::Config pconfig;
  pconfig.iterations = 5;
  proptest::Check(
      "db-random-plan",
      [](Rng& rng) {
        const std::string spec = RandomDbPlan(rng);
        SCOPED_TRACE("plan: " + spec);
        auto config = FastDbConfig(DbPolicy::kE2e);
        config.common.seed = rng.NextU64();
        config.common.fault_plan = fault::FaultPlan::Parse(spec);
        config.common.resilience = ResilienceConfig::DbAllOn();
        const auto records =
            LoadedWorkload(400, rng.NextU64() % 1000 + 1, 90.0);
        const auto a = RunDbExperiment(records, TraceQoe(), config);
        const auto b = RunDbExperiment(records, TraceQoe(), config);
        ExpectConservation(a);
        ExpectHedgeBalance(a);
        EXPECT_EQ(a.Serialize(), b.Serialize());
      },
      pconfig);
}

TEST(ResilienceProperties, BrokerRandomPlansConserveAndReplay) {
  proptest::Config pconfig;
  pconfig.iterations = 5;
  proptest::Check(
      "broker-random-plan",
      [](Rng& rng) {
        const std::string spec = RandomBrokerPlan(rng);
        SCOPED_TRACE("plan: " + spec);
        auto config = FastBrokerConfig(BrokerPolicy::kE2e);
        config.common.seed = rng.NextU64();
        config.common.fault_plan = fault::FaultPlan::Parse(spec);
        config.common.resilience = ResilienceConfig::BrokerAllOn();
        const auto records =
            LoadedWorkload(400, rng.NextU64() % 1000 + 1, 60.0);
        const auto a = RunBrokerExperiment(records, TraceQoe(), config);
        const auto b = RunBrokerExperiment(records, TraceQoe(), config);
        ExpectConservation(a);
        EXPECT_EQ(a.Serialize(), b.Serialize());
      },
      pconfig);
}

}  // namespace
}  // namespace e2e
