// Fault-injection subsystem tests: plan grammar, injector mechanics, and
// system invariants under randomized fault plans (ctest label: faults).
//
// The invariants (DESIGN.md, docs/FAULTS.md):
//   1. Determinism — identical seeds and plans give bit-identical results.
//   2. Graceful degradation — QoE under controller faults never falls
//      meaningfully below the no-controller default-policy baseline.
//   3. Conservation — every arrival is completed, failed over, or dropped;
//      none silently lost.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/scheduler.h"
#include "db/cluster.h"
#include "fault/adversary.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "testbed/adversary_harness.h"
#include "testbed/worst_plan_fixture.h"
#include "proptest.h"
#include "qoe/sigmoid_model.h"
#include "sim/event_loop.h"
#include "testbed/broker_experiment.h"
#include "testbed/db_experiment.h"
#include "testbed/workloads.h"

namespace e2e {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;

// ---- Plan grammar ----------------------------------------------------------

TEST(FaultPlan, ParsesTheIssueExample) {
  const auto plan = FaultPlan::Parse(
      "crash ctrl@t=60s for=30s; drop broker p=0.02 seed=7; "
      "delay db +15ms t=[120s,180s]");
  ASSERT_EQ(plan.faults.size(), 3u);

  EXPECT_EQ(plan.faults[0].kind, FaultKind::kCrashController);
  EXPECT_DOUBLE_EQ(plan.faults[0].start_ms, 60000.0);
  EXPECT_DOUBLE_EQ(plan.faults[0].end_ms, 90000.0);

  EXPECT_EQ(plan.faults[1].kind, FaultKind::kDropMessages);
  EXPECT_DOUBLE_EQ(plan.faults[1].probability, 0.02);
  EXPECT_EQ(plan.faults[1].seed, 7u);
  EXPECT_DOUBLE_EQ(plan.faults[1].start_ms, 0.0);
  EXPECT_EQ(plan.faults[1].end_ms, fault::kOpenEndMs);

  EXPECT_EQ(plan.faults[2].kind, FaultKind::kDelayReplica);
  EXPECT_DOUBLE_EQ(plan.faults[2].delta_ms, 15.0);
  EXPECT_EQ(plan.faults[2].replica, -1);
  EXPECT_DOUBLE_EQ(plan.faults[2].start_ms, 120000.0);
  EXPECT_DOUBLE_EQ(plan.faults[2].end_ms, 180000.0);
}

TEST(FaultPlan, ParsesAllClauseKinds) {
  const auto plan = FaultPlan::Parse(
      "crash ctrl t=[10s,20s]; drop broker p=0.5; delay broker +2.5ms; "
      "delay db +100ms r=2 t=5s; partition db r=1 t=[1m,2m]; "
      "skew est err=0.25 t=[30s,60s]");
  ASSERT_EQ(plan.faults.size(), 6u);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::kDelayMessages);
  EXPECT_DOUBLE_EQ(plan.faults[2].delta_ms, 2.5);
  EXPECT_EQ(plan.faults[3].replica, 2);
  EXPECT_EQ(plan.faults[4].kind, FaultKind::kPartitionReplica);
  EXPECT_DOUBLE_EQ(plan.faults[4].start_ms, 60000.0);
  EXPECT_DOUBLE_EQ(plan.faults[4].end_ms, 120000.0);
  EXPECT_EQ(plan.faults[5].kind, FaultKind::kSkewEstimator);
  EXPECT_DOUBLE_EQ(plan.faults[5].error, 0.25);
}

TEST(FaultPlan, DurationUnits) {
  const auto plan =
      FaultPlan::Parse("delay broker +500 t=[1500ms,0.5m]");  // bare = ms.
  ASSERT_EQ(plan.faults.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.faults[0].delta_ms, 500.0);
  EXPECT_DOUBLE_EQ(plan.faults[0].start_ms, 1500.0);
  EXPECT_DOUBLE_EQ(plan.faults[0].end_ms, 30000.0);
}

TEST(FaultPlan, EmptyAndWhitespacePlans) {
  EXPECT_TRUE(FaultPlan::Parse("").empty());
  EXPECT_TRUE(FaultPlan::Parse("  ;  ; ").empty());
  const auto plan = FaultPlan::Parse("drop broker p=0.1;");
  EXPECT_EQ(plan.faults.size(), 1u);
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const std::string spec =
      "crash ctrl t=[60s,90s]; drop broker p=0.02 seed=7; "
      "delay db +15ms r=1 t=[120s,180s]; skew est err=0.3";
  const auto plan = FaultPlan::Parse(spec);
  const auto reparsed = FaultPlan::Parse(plan.ToString());
  ASSERT_EQ(reparsed.faults.size(), plan.faults.size());
  EXPECT_EQ(reparsed.ToString(), plan.ToString());
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    EXPECT_EQ(reparsed.faults[i].kind, plan.faults[i].kind);
    EXPECT_DOUBLE_EQ(reparsed.faults[i].start_ms, plan.faults[i].start_ms);
    EXPECT_DOUBLE_EQ(reparsed.faults[i].end_ms, plan.faults[i].end_ms);
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  // Unknown action/target.
  EXPECT_THROW(FaultPlan::Parse("melt ctrl t=1s for=1s"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash broker t=1s for=1s"),
               std::invalid_argument);
  // Missing required fields.
  EXPECT_THROW(FaultPlan::Parse("drop broker"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("delay broker t=1s"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("skew est t=1s"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash ctrl t=1s"), std::invalid_argument);
  // Out-of-range / inconsistent values.
  EXPECT_THROW(FaultPlan::Parse("drop broker p=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("drop broker p=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("delay db +5ms t=[10s,5s]"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash ctrl t=5s for=10s p=0.5"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("delay db +5ms err=0.5"),
               std::invalid_argument);
  // Non-finite values parse as numbers and must still be rejected.
  for (const char* spec :
       {"skew est err=nan t=1s for=1s", "skew est err=inf t=1s for=1s",
        "delay broker +nan t=1s for=1s", "delay db +inf t=1s for=1s",
        "drop broker p=nan"}) {
    EXPECT_THROW(FaultPlan::Parse(spec), std::invalid_argument) << spec;
  }
  // Bad tokens.
  EXPECT_THROW(FaultPlan::Parse("drop broker p=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("delay db +5parsecs"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("drop broker p=0.1 t=[1s"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("drop broker p=0.1 banana"),
               std::invalid_argument);
}

// ---- Injector mechanics ----------------------------------------------------

TEST(FaultInjector, BrokerDropAndDelayWindowsComposeAndClear) {
  EventLoop loop;
  auto scheduler = std::make_shared<broker::FifoScheduler>();
  broker::MessageBroker broker(loop, broker::BrokerParams{}, scheduler);
  broker.StopConsumers();  // Keep the loop free of pull timers.

  fault::FaultTargets targets;
  targets.broker = &broker;
  fault::FaultInjector injector(
      loop,
      FaultPlan::Parse("drop broker p=0.5 t=[10,30]; "
                       "delay broker +5ms t=[20,40]; "
                       "delay broker +2ms t=[20,50]"),
      targets);
  injector.Arm();

  loop.RunUntil(15.0);
  EXPECT_DOUBLE_EQ(broker.faults().drop_probability, 0.5);
  EXPECT_DOUBLE_EQ(broker.faults().extra_delay_ms, 0.0);
  loop.RunUntil(25.0);
  EXPECT_DOUBLE_EQ(broker.faults().extra_delay_ms, 7.0);
  loop.RunUntil(45.0);
  EXPECT_DOUBLE_EQ(broker.faults().drop_probability, 0.0);
  EXPECT_DOUBLE_EQ(broker.faults().extra_delay_ms, 2.0);
  loop.RunUntil(60.0);
  EXPECT_DOUBLE_EQ(broker.faults().extra_delay_ms, 0.0);
  // Two transitions per windowed clause.
  EXPECT_EQ(injector.injected().size(), 6u);
}

TEST(FaultInjector, DbDelayAndPartitionTargetReplicas) {
  EventLoop loop;
  db::ClusterParams params;
  params.replica_groups = 3;
  db::Cluster cluster(loop, params, Rng(1));

  fault::FaultTargets targets;
  targets.cluster = &cluster;
  fault::FaultInjector injector(
      loop,
      FaultPlan::Parse("delay db +10ms r=1 t=[10,30]; delay db +4ms t=[20,30];"
                       " partition db r=2 t=[10,40]"),
      targets);
  injector.Arm();

  loop.RunUntil(15.0);
  EXPECT_DOUBLE_EQ(cluster.replica(0).server().extra_service_delay_ms(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.replica(1).server().extra_service_delay_ms(), 10.0);
  EXPECT_FALSE(cluster.IsPartitioned(0));
  EXPECT_TRUE(cluster.IsPartitioned(2));
  loop.RunUntil(25.0);  // r=-1 delay adds everywhere.
  EXPECT_DOUBLE_EQ(cluster.replica(0).server().extra_service_delay_ms(), 4.0);
  EXPECT_DOUBLE_EQ(cluster.replica(1).server().extra_service_delay_ms(), 14.0);
  loop.RunUntil(35.0);
  EXPECT_DOUBLE_EQ(cluster.replica(1).server().extra_service_delay_ms(), 0.0);
  EXPECT_TRUE(cluster.IsPartitioned(2));
  loop.RunUntil(45.0);
  EXPECT_FALSE(cluster.IsPartitioned(2));
}

TEST(FaultInjector, ArmRejectsPlansWithoutTheNeededTarget) {
  EventLoop loop;
  fault::FaultTargets none;
  {
    fault::FaultInjector injector(
        loop, FaultPlan::Parse("crash ctrl t=1s for=1s"), none);
    EXPECT_THROW(injector.Arm(), std::invalid_argument);
  }
  {
    fault::FaultInjector injector(loop, FaultPlan::Parse("drop broker p=0.1"),
                                  none);
    EXPECT_THROW(injector.Arm(), std::invalid_argument);
  }
  {
    fault::FaultInjector injector(loop, FaultPlan::Parse("skew est err=0.1"),
                                  none);
    EXPECT_THROW(injector.Arm(), std::invalid_argument);
  }
  {
    db::ClusterParams params;
    params.replica_groups = 2;
    db::Cluster cluster(loop, params, Rng(1));
    fault::FaultTargets targets;
    targets.cluster = &cluster;
    fault::FaultInjector injector(
        loop, FaultPlan::Parse("partition db r=7 t=[1,2]"), targets);
    EXPECT_THROW(injector.Arm(), std::invalid_argument);  // Replica range.
  }
}

// ---- Experiment-level workloads -------------------------------------------

const QoeModel& TestQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

// 40 s of trace; at speedup 2.5 the replay spans ~16 s of testbed time at
// ~150 msg/s against the broker's 200 msg/s consumer.
std::vector<TraceRecord> BrokerWorkload(std::uint64_t seed = 17) {
  SyntheticWorkloadParams params;
  params.num_requests = 2400;
  params.rps = 60.0;
  params.seed = seed;
  return MakeSyntheticWorkload(params);
}

BrokerExperimentConfig TestBrokerConfig(BrokerPolicy policy,
                                        std::uint64_t seed = 13) {
  BrokerExperimentConfig config;
  config.policy = policy;
  config.common.speedup = 2.5;  // ~150 msg/s against a 200 msg/s consumer.
  config.common.controller.external.window_ms = 4000.0;
  config.common.controller.external.min_samples = 30;
  config.common.controller.policy.target_buckets = 8;
  config.common.seed = seed;
  return config;
}

DbExperimentConfig TestDbConfig(DbPolicy policy, std::uint64_t seed = 11) {
  DbExperimentConfig config;
  config.policy = policy;
  config.common.speedup = 2.0;
  config.dataset_keys = 300;
  config.value_bytes = 16;
  config.range_count = 10;
  config.cluster.replica_groups = 3;
  config.cluster.concurrency_per_replica = 8;
  config.cluster.base_service_ms = 15.0;
  config.cluster.capacity = 8.0;
  config.common.seed = seed;
  return config;
}

std::vector<TraceRecord> DbWorkload(std::uint64_t seed = 19) {
  SyntheticWorkloadParams params;
  params.num_requests = 400;
  params.rps = 50.0;
  params.seed = seed;
  return MakeSyntheticWorkload(params);
}

// Conservation: every arrival is accounted for by exactly one outcome.
void ExpectConservation(const ExperimentResult& result) {
  EXPECT_EQ(result.outcomes.size(), result.arrivals);
  EXPECT_EQ(result.completed + result.failed_over + result.dropped,
            result.arrivals);
}

// ---- Invariant: drops are observed, counted, and deterministic -------------

TEST(FaultExperiments, BrokerDropsAreCountedAndConserved) {
  const auto records = BrokerWorkload();
  auto config = TestBrokerConfig(BrokerPolicy::kDefault);
  config.common.fault_plan = FaultPlan::Parse("drop broker p=0.1 seed=3");
  const auto result = RunBrokerExperiment(records, TestQoe(), config);
  ExpectConservation(result);
  // ~10% of 2400 arrivals; dropped outcomes carry no delays or QoE.
  EXPECT_GT(result.dropped, 160u);
  EXPECT_LT(result.dropped, 330u);
  for (const auto& o : result.outcomes) {
    if (o.status == RequestStatus::kDropped) {
      EXPECT_EQ(o.decision, -1);
      EXPECT_DOUBLE_EQ(o.qoe, 0.0);
      EXPECT_DOUBLE_EQ(o.server_delay_ms, 0.0);
    }
  }
}

TEST(FaultExperiments, BrokerDelayFaultRaisesServerDelay) {
  const auto records = BrokerWorkload();
  auto config = TestBrokerConfig(BrokerPolicy::kDefault);
  const auto clean = RunBrokerExperiment(records, TestQoe(), config);
  config.common.fault_plan = FaultPlan::Parse("delay broker +40ms");
  const auto delayed = RunBrokerExperiment(records, TestQoe(), config);
  ExpectConservation(delayed);
  EXPECT_NEAR(delayed.mean_server_delay_ms, clean.mean_server_delay_ms + 40.0,
              1.0);
  EXPECT_LT(delayed.mean_qoe, clean.mean_qoe);
}

TEST(FaultExperiments, DbPartitionFailsOverAndConserves) {
  const auto records = DbWorkload();
  auto config = TestDbConfig(DbPolicy::kDefault);
  config.common.fault_plan = FaultPlan::Parse("partition db r=0 t=[2s,6s]");
  const auto result = RunDbExperiment(records, TestQoe(), config);
  ExpectConservation(result);
  EXPECT_GT(result.failed_over, 0u);
  EXPECT_EQ(result.dropped, 0u);
  // Nothing routed to the partitioned replica inside the window.
  for (const auto& o : result.outcomes) {
    if (o.arrival_ms >= 2000.0 && o.arrival_ms < 6000.0) {
      EXPECT_NE(o.decision, 0) << "request served by a partitioned replica";
    }
  }
  // Faults recorded: one inject + one clear.
  ASSERT_EQ(result.injected_faults.size(), 2u);
  EXPECT_DOUBLE_EQ(result.injected_faults[0].at_ms, 2000.0);
  EXPECT_DOUBLE_EQ(result.injected_faults[1].at_ms, 6000.0);
}

TEST(FaultExperiments, DbDelayFaultSlowsTheWindow) {
  const auto records = DbWorkload();
  auto config = TestDbConfig(DbPolicy::kDefault);
  const auto clean = RunDbExperiment(records, TestQoe(), config);
  config.common.fault_plan = FaultPlan::Parse("delay db +200ms t=[1s,5s]");
  const auto slowed = RunDbExperiment(records, TestQoe(), config);
  ExpectConservation(slowed);
  EXPECT_GT(slowed.mean_server_delay_ms, clean.mean_server_delay_ms + 20.0);
}

TEST(FaultExperiments, PlanNeedingMissingTargetThrows) {
  const auto records = DbWorkload();
  auto config = TestDbConfig(DbPolicy::kDefault);  // No controller.
  config.common.fault_plan = FaultPlan::Parse("crash ctrl t=2s for=2s");
  EXPECT_THROW(RunDbExperiment(records, TestQoe(), config),
               std::invalid_argument);
  auto broker_config = TestBrokerConfig(BrokerPolicy::kDefault);
  broker_config.common.fault_plan = FaultPlan::Parse("partition db r=0 t=[1s,2s]");
  EXPECT_THROW(RunBrokerExperiment(BrokerWorkload(), TestQoe(), broker_config),
               std::invalid_argument);
}

// ---- Invariant: graceful degradation under controller crash ----------------

TEST(FaultExperiments, CrashDegradesGracefullyAndRecovers) {
  const auto records = BrokerWorkload();
  const auto baseline = RunBrokerExperiment(
      records, TestQoe(), TestBrokerConfig(BrokerPolicy::kDefault));
  const auto healthy = RunBrokerExperiment(records, TestQoe(),
                                           TestBrokerConfig(BrokerPolicy::kE2e));

  auto crashing = TestBrokerConfig(BrokerPolicy::kE2e);
  crashing.common.fault_plan = FaultPlan::Parse("crash ctrl t=6s for=5s");
  const auto crashed = RunBrokerExperiment(records, TestQoe(), crashing);

  ExpectConservation(crashed);
  // The stale cached table keeps serving: the crashed run must not fall
  // meaningfully below the no-controller default policy.
  EXPECT_GE(crashed.mean_qoe, baseline.mean_qoe * 0.95);
  // And it cannot beat the healthy controller by more than noise.
  EXPECT_LE(crashed.mean_qoe, healthy.mean_qoe * 1.05);
  ASSERT_EQ(crashed.injected_faults.size(), 1u);
  EXPECT_DOUBLE_EQ(crashed.injected_faults[0].at_ms, 6000.0);
}

// ---- Invariant: bit-identical determinism ----------------------------------

TEST(FaultExperiments, GoldenDeterminismBrokerExperiment) {
  const auto records = BrokerWorkload();
  auto config = TestBrokerConfig(BrokerPolicy::kE2e);
  config.common.fault_plan =
      FaultPlan::Parse("drop broker p=0.05 seed=5; crash ctrl t=6s for=5s");
  const auto a = RunBrokerExperiment(records, TestQoe(), config);
  const auto b = RunBrokerExperiment(records, TestQoe(), config);
  EXPECT_EQ(a.Serialize(), b.Serialize());

  // A different drop-stream seed drops different messages.
  auto reseeded = config;
  reseeded.common.fault_plan =
      FaultPlan::Parse("drop broker p=0.05 seed=99; crash ctrl t=6s for=5s");
  const auto c = RunBrokerExperiment(records, TestQoe(), reseeded);
  EXPECT_NE(a.Serialize(), c.Serialize());
}

TEST(FaultExperiments, GoldenDeterminismDbExperiment) {
  const auto records = DbWorkload();
  auto config = TestDbConfig(DbPolicy::kDefault);
  config.common.fault_plan =
      FaultPlan::Parse("partition db r=1 t=[2s,4s]; delay db +25ms t=[3s,6s]");
  const auto a = RunDbExperiment(records, TestQoe(), config);
  const auto b = RunDbExperiment(records, TestQoe(), config);
  EXPECT_EQ(a.Serialize(), b.Serialize());

  auto reseeded = config;
  reseeded.common.seed = config.common.seed + 1;
  const auto c = RunDbExperiment(records, TestQoe(), reseeded);
  EXPECT_NE(a.Serialize(), c.Serialize());
}

// ---- Property: randomized plans keep all three invariants ------------------

// Draws a random broker-experiment plan: any subset of {crash, drop, delay,
// skew} with randomized windows and magnitudes.
FaultPlan RandomBrokerPlan(Rng& rng) {
  std::string spec;
  auto append = [&spec](const std::string& clause) {
    if (!spec.empty()) spec += "; ";
    spec += clause;
  };
  if (rng.Bernoulli(0.5)) {
    const double at = rng.Uniform(5000.0, 9000.0);
    const double dur = rng.Uniform(2000.0, 6000.0);
    append("crash ctrl t=" + std::to_string(at) + "ms for=" +
           std::to_string(dur) + "ms");
  }
  if (rng.Bernoulli(0.5)) {
    const double p = rng.Uniform(0.0, 0.08);
    const double lo = rng.Uniform(0.0, 10000.0);
    const double hi = lo + rng.Uniform(2000.0, 8000.0);
    append("drop broker p=" + std::to_string(p) +
           " seed=" + std::to_string(rng.NextU64() % 1000) + " t=[" +
           std::to_string(lo) + "ms," + std::to_string(hi) + "ms]");
  }
  if (rng.Bernoulli(0.5)) {
    const double delta = rng.Uniform(1.0, 25.0);
    append("delay broker +" + std::to_string(delta) + "ms");
  }
  if (rng.Bernoulli(0.5)) {
    const double err = rng.Uniform(0.05, 0.6);
    const double lo = rng.Uniform(3000.0, 9000.0);
    const double hi = lo + rng.Uniform(2000.0, 6000.0);
    append("skew est err=" + std::to_string(err) + " t=[" +
           std::to_string(lo) + "ms," + std::to_string(hi) + "ms]");
  }
  return FaultPlan::Parse(spec);
}

// The same plan with controller-only clauses removed, runnable by the
// controller-less default policy.
FaultPlan StripControllerFaults(const FaultPlan& plan) {
  FaultPlan stripped;
  for (const auto& spec : plan.faults) {
    if (spec.kind == FaultKind::kCrashController ||
        spec.kind == FaultKind::kSkewEstimator) {
      continue;
    }
    stripped.faults.push_back(spec);
  }
  return stripped;
}

TEST(FaultProperties, RandomPlansPreserveSystemInvariants) {
  const auto records = BrokerWorkload();
  proptest::Config prop_config;
  prop_config.iterations = 6;  // Each iteration runs three experiments.
  proptest::Check(
      "broker-fault-invariants",
      [&records](Rng& rng) {
        const FaultPlan plan = RandomBrokerPlan(rng);
        const std::uint64_t seed = rng.NextU64() % 10000;

        auto faulty_config = TestBrokerConfig(BrokerPolicy::kE2e, seed);
        faulty_config.common.fault_plan = plan;
        const auto faulty =
            RunBrokerExperiment(records, TestQoe(), faulty_config);

        // (1) Determinism: the identical run is bit-identical.
        const auto again =
            RunBrokerExperiment(records, TestQoe(), faulty_config);
        EXPECT_EQ(faulty.Serialize(), again.Serialize());

        // (2) Conservation: all arrivals accounted for.
        ExpectConservation(faulty);
        EXPECT_EQ(faulty.arrivals, records.size());

        // (3) Graceful degradation: never meaningfully below the
        // no-controller default policy run under the same broker faults.
        auto baseline_config = TestBrokerConfig(BrokerPolicy::kDefault, seed);
        baseline_config.common.fault_plan = StripControllerFaults(plan);
        const auto baseline =
            RunBrokerExperiment(records, TestQoe(), baseline_config);
        EXPECT_GE(faulty.mean_qoe, baseline.mean_qoe * 0.93)
            << "plan: " << plan.ToString();
      },
      prop_config);
}

TEST(FaultProperties, RandomDbPlansConserveRequests) {
  const auto records = DbWorkload();
  proptest::Config prop_config;
  prop_config.iterations = 5;
  proptest::Check(
      "db-fault-conservation",
      [&records](Rng& rng) {
        // Random replica delays and partitions (never all three replicas
        // at once, staying in the failover regime).
        const int victim = static_cast<int>(rng.UniformInt(0, 2));
        const double lo = rng.Uniform(500.0, 3000.0);
        const double hi = lo + rng.Uniform(1000.0, 4000.0);
        std::string spec = "partition db r=" + std::to_string(victim) +
                           " t=[" + std::to_string(lo) + "ms," +
                           std::to_string(hi) + "ms]";
        if (rng.Bernoulli(0.5)) {
          spec += "; delay db +" + std::to_string(rng.Uniform(5.0, 80.0)) +
                  "ms t=[" + std::to_string(lo) + "ms," + std::to_string(hi) +
                  "ms]";
        }
        auto config = TestDbConfig(DbPolicy::kDefault,
                                   rng.NextU64() % 10000);
        config.common.fault_plan = FaultPlan::Parse(spec);
        const auto result = RunDbExperiment(records, TestQoe(), config);
        ExpectConservation(result);
        EXPECT_EQ(result.dropped, 0u);  // The db path never loses requests.
        const auto again = RunDbExperiment(records, TestQoe(), config);
        EXPECT_EQ(result.Serialize(), again.Serialize());
      },
      prop_config);
}

// ---- Adversarial fault-plan search -----------------------------------------

TEST(Adversary, SampledAndMutatedPlansStayInTheGrammar) {
  fault::AdversaryConfig config;
  config.replicas = 3;
  config.broker_faults = true;  // Exercise the full clause set.
  const fault::Adversary adversary(config);
  proptest::Config pconfig;
  pconfig.iterations = 50;
  proptest::Check(
      "adversary-grammar",
      [&adversary](Rng& rng) {
        fault::FaultPlan plan = adversary.SamplePlan(rng);
        // Validate()-clean and canonical-text round-trippable, through a
        // chain of mutations.
        for (int step = 0; step < 4; ++step) {
          plan.Validate();
          const std::string text = plan.ToString();
          EXPECT_EQ(fault::FaultPlan::Parse(text).ToString(), text);
          plan = adversary.MutatePlan(plan, rng);
        }
      },
      pconfig);
}

TEST(Adversary, SearchIsSeededAndReportsItsIncumbent) {
  fault::AdversaryConfig config;
  config.seed = 5;
  config.iterations = 24;
  const fault::Adversary adversary(config);
  // A pure, deterministic stand-in evaluator: score by plan text, so the
  // search trajectory depends only on the seed.
  const auto evaluate = [](const fault::FaultPlan& plan) {
    double score = 0.0;
    for (const char c : plan.ToString()) {
      score = score * 31.0 + static_cast<double>(c);
      score = score - std::floor(score / 1000.0) * 1000.0;
    }
    return score;
  };
  const auto a = adversary.Search(evaluate);
  const auto b = adversary.Search(evaluate);
  EXPECT_EQ(a.best_plan.ToString(), b.best_plan.ToString());
  EXPECT_EQ(a.best_score, b.best_score);
  ASSERT_EQ(a.history.size(), b.history.size());
  EXPECT_LE(a.history.size(),
            static_cast<std::size_t>(adversary.config().iterations));
  // The reported best is the max over the trajectory, and `improved`
  // marks exactly the new incumbents.
  double incumbent = -1.0;
  for (const auto& step : a.history) {
    if (step.improved) {
      EXPECT_GT(step.score, incumbent);
      incumbent = step.score;
    } else {
      EXPECT_LE(step.score, incumbent);
    }
  }
  EXPECT_EQ(a.best_score, incumbent);
  EXPECT_EQ(evaluate(a.best_plan), a.best_score);
}

TEST(Adversary, ValidatesConfig) {
  fault::AdversaryConfig bad;
  bad.iterations = 0;
  EXPECT_THROW(fault::Adversary{bad}, std::invalid_argument);
  bad = {};
  bad.replicas = 0;
  EXPECT_THROW(fault::Adversary{bad}, std::invalid_argument);
  bad = {};
  bad.patience = 0;
  EXPECT_THROW(fault::Adversary{bad}, std::invalid_argument);
}

// ---- Worst-plan regression fixture -----------------------------------------

// The committed fixture (testbed/worst_plan_fixture.h) is the worst plan a
// seeded adversary search found against the model-driven configuration.
// Drift in the harness, the search, or the resilience layer shows up here
// as a byte-level mismatch; re-derive with tools/adversary when the change
// is intentional.
TEST(WorstPlanFixture, ReproducesItsRecordedRegressionExactly) {
  const AdversaryHarness harness;
  const auto plan = fault::FaultPlan::Parse(fixture::kWorstPlanSpec);
  EXPECT_EQ(harness.baseline_qoe(), fixture::kWorstPlanBaselineQoe);
  EXPECT_EQ(harness.Regression(plan), fixture::kWorstPlanRegression);
}

// Graceful degradation under the adversary's best shot: every request is
// accounted for and mean QoE holds the recorded floor.
TEST(WorstPlanFixture, ModelDrivenHedgingSurvivesTheWorstPlan) {
  const AdversaryHarness harness;
  const auto plan = fault::FaultPlan::Parse(fixture::kWorstPlanSpec);
  const auto result = harness.Run(plan);
  EXPECT_EQ(result.completed + result.failed_over + result.dropped +
                result.shed,
            result.arrivals);
  EXPECT_EQ(result.resilience.hedges_cancelled,
            result.resilience.hedges_issued);
  EXPECT_GE(result.mean_qoe,
            fixture::kWorstPlanQoeFloorFraction * harness.baseline_qoe());
}

}  // namespace
}  // namespace e2e
