#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "fnv1a.h"
#include "qoe/sigmoid_model.h"
#include "testbed/broker_experiment.h"
#include "testbed/counterfactual.h"
#include "testbed/db_experiment.h"
#include "testbed/metrics.h"
#include "testbed/workloads.h"

namespace e2e {
namespace {

const SigmoidQoeModel& TraceQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

QoeModelSelector TraceQoeSelector() {
  return [](PageType) -> const QoeModel& { return TraceQoe(); };
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

// ---- Metrics ---------------------------------------------------------------

TEST(Metrics, FinalizeComputesAggregates) {
  ExperimentResult result;
  result.outcomes = {
      {.id = 1, .arrival_ms = 0.0, .server_delay_ms = 100.0, .qoe = 0.8},
      {.id = 2, .arrival_ms = 1000.0, .server_delay_ms = 300.0, .qoe = 0.4},
  };
  result.Finalize();
  EXPECT_DOUBLE_EQ(result.mean_qoe, 0.6);
  EXPECT_DOUBLE_EQ(result.mean_server_delay_ms, 200.0);
  EXPECT_DOUBLE_EQ(result.throughput_rps, 2.0);
}

TEST(Metrics, QoeGainPercent) {
  EXPECT_DOUBLE_EQ(QoeGainPercent(0.5, 0.6), 20.0);
  EXPECT_DOUBLE_EQ(QoeGainPercent(0.5, 0.4), -20.0);
  EXPECT_THROW(QoeGainPercent(0.0, 1.0), std::invalid_argument);
}

// ---- Counterfactual reshuffling (§2.3) --------------------------------------

TEST(Reshuffle, PreservesDelayMultisetWithinWindows) {
  const auto records = LoadedWorkload(800);
  const auto result = ReshuffleWithinWindows(
      records, TraceQoeSelector(), ReshufflePolicy::kSlopeRanked, 10000.0);
  ASSERT_EQ(result.requests.size(), records.size());
  // Multiset of server delays is unchanged overall.
  std::vector<double> before, after;
  for (const auto& r : records) before.push_back(r.server_delay_ms);
  for (const auto& r : result.requests) {
    after.push_back(r.new_server_delay_ms);
  }
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  }
}

TEST(Reshuffle, RecordedPolicyIsIdentity) {
  const auto records = LoadedWorkload(300);
  const auto result = ReshuffleWithinWindows(
      records, TraceQoeSelector(), ReshufflePolicy::kRecorded, 10000.0);
  for (const auto& r : result.requests) {
    EXPECT_DOUBLE_EQ(r.new_server_delay_ms, r.record.server_delay_ms);
    EXPECT_DOUBLE_EQ(r.old_qoe, r.new_qoe);
  }
  EXPECT_NEAR(result.MeanGainPercent(), 0.0, 1e-9);
}

TEST(Reshuffle, OrderingOfPolicies) {
  // zero-delay >= optimal >= slope >= recorded (in mean QoE).
  const auto records = LoadedWorkload(1200);
  const auto selector = TraceQoeSelector();
  const double window = 10000.0;
  const auto recorded = ReshuffleWithinWindows(
      records, selector, ReshufflePolicy::kRecorded, window);
  const auto slope = ReshuffleWithinWindows(
      records, selector, ReshufflePolicy::kSlopeRanked, window);
  const auto optimal = ReshuffleWithinWindows(
      records, selector, ReshufflePolicy::kOptimalMatching, window);
  const auto zero = ReshuffleWithinWindows(
      records, selector, ReshufflePolicy::kZeroServerDelay, window);
  EXPECT_GE(zero.new_mean_qoe, optimal.new_mean_qoe - 1e-9);
  EXPECT_GE(optimal.new_mean_qoe, slope.new_mean_qoe - 1e-9);
  EXPECT_GE(slope.new_mean_qoe, recorded.new_mean_qoe - 1e-9);
  // And the reshuffles genuinely help on this workload.
  EXPECT_GT(optimal.MeanGainPercent(), 1.0);
}

TEST(Reshuffle, OptimalIsOptimalPerWindow) {
  // On a tiny window, compare against brute force over permutations.
  std::vector<TraceRecord> records;
  const double externals[4] = {500.0, 2500.0, 4200.0, 9000.0};
  const double servers[4] = {900.0, 60.0, 420.0, 1500.0};
  for (int i = 0; i < 4; ++i) {
    TraceRecord r;
    r.request_id = static_cast<RequestId>(i + 1);
    r.arrival_ms = 10.0 * i;
    r.external_delay_ms = externals[i];
    r.server_delay_ms = servers[i];
    records.push_back(r);
  }
  const auto optimal = ReshuffleWithinWindows(
      records, TraceQoeSelector(), ReshufflePolicy::kOptimalMatching, 1e9);
  // Brute force.
  std::vector<int> perm = {0, 1, 2, 3};
  double best = -1e18;
  do {
    double total = 0.0;
    for (int i = 0; i < 4; ++i) {
      total += TraceQoe().Qoe(externals[i] +
                              servers[static_cast<std::size_t>(perm[i])]);
    }
    best = std::max(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_NEAR(optimal.new_mean_qoe * 4.0, best, 1e-9);
}

TEST(Reshuffle, SmallGroupsKeepRecordedDelays) {
  auto records = LoadedWorkload(3);
  const auto result =
      ReshuffleWithinWindows(records, TraceQoeSelector(),
                             ReshufflePolicy::kSlopeRanked, 1.0,  // 1 ms
                             /*min_group=*/2);
  for (const auto& r : result.requests) {
    EXPECT_DOUBLE_EQ(r.new_server_delay_ms, r.record.server_delay_ms);
  }
}

// ---- Workloads --------------------------------------------------------------

TEST(Workloads, SyntheticMomentsMatchParams) {
  SyntheticWorkloadParams params;
  params.num_requests = 20000;
  params.external_mean_ms = 3000.0;
  params.external_cov = 0.4;
  params.server_mean_ms = 200.0;
  params.server_cov = 0.6;
  const auto records = MakeSyntheticWorkload(params);
  double ext_sum = 0.0, srv_sum = 0.0;
  for (const auto& r : records) {
    ext_sum += r.external_delay_ms;
    srv_sum += r.server_delay_ms;
  }
  EXPECT_NEAR(ext_sum / 20000.0, 3000.0, 100.0);
  EXPECT_NEAR(srv_sum / 20000.0, 200.0, 15.0);
}

TEST(Workloads, HourSliceFilters) {
  const Trace trace = MakeStandardTrace(0.01);
  const auto slice = HourSlice(trace, PageType::kType1, 16, 17);
  EXPECT_FALSE(slice.empty());
  for (const auto& r : slice) {
    EXPECT_EQ(r.page_type, PageType::kType1);
    EXPECT_GE(r.arrival_ms, 16 * 3600000.0);
    EXPECT_LT(r.arrival_ms, 17 * 3600000.0);
  }
}

// Only ReplayTraceSharded models session quits: a testbed runner rejects an
// enabled abandonment model by name instead of running without it.
void ExpectRejectsAbandonment(const std::function<void()>& run) {
  try {
    run();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("abandonment.enabled"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("ReplayTraceSharded"),
              std::string::npos)
        << e.what();
  }
}

// ---- DB experiment -----------------------------------------------------------

DbExperimentConfig FastDbConfig(DbPolicy policy) {
  DbExperimentConfig config;
  config.policy = policy;
  config.dataset_keys = 2000;
  config.value_bytes = 16;
  config.range_count = 20;
  config.common.speedup = 1.0;  // Records already carry testbed-scale arrivals.
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

TEST(DbExperiment, AllRequestsComplete) {
  const auto records = LoadedWorkload(600);
  const auto result =
      RunDbExperiment(records, TraceQoe(), FastDbConfig(DbPolicy::kDefault));
  EXPECT_EQ(result.outcomes.size(), records.size());
  EXPECT_GT(result.mean_qoe, 0.0);
  EXPECT_GT(result.mean_server_delay_ms, 0.0);
  EXPECT_GT(result.service_busy_ms, 0.0);
}

TEST(DbExperiment, E2eBeatsDefaultUnderLoad) {
  // Offered load slightly above the cluster knee (3 replicas x ~33 rps):
  // the regime where the paper reports E2E's largest gains (Fig. 15).
  const auto records = LoadedWorkload(2500, 23, 115.0);
  const auto base =
      RunDbExperiment(records, TraceQoe(), FastDbConfig(DbPolicy::kDefault));
  const auto e2e =
      RunDbExperiment(records, TraceQoe(), FastDbConfig(DbPolicy::kE2e));
  EXPECT_EQ(base.outcomes.size(), e2e.outcomes.size());
  EXPECT_GT(e2e.mean_qoe, base.mean_qoe);
  EXPECT_GT(e2e.controller_stats.recomputes, 0u);
}

TEST(DbExperiment, DeterministicInSeed) {
  const auto records = LoadedWorkload(400);
  const auto a =
      RunDbExperiment(records, TraceQoe(), FastDbConfig(DbPolicy::kE2e));
  const auto b =
      RunDbExperiment(records, TraceQoe(), FastDbConfig(DbPolicy::kE2e));
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_DOUBLE_EQ(a.mean_qoe, b.mean_qoe);
}

TEST(DbExperiment, FailoverKeepsServing) {
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.fault_plan = fault::FaultPlan::Parse("crash ctrl t=15s for=5s");
  const auto records = LoadedWorkload(2000, 29, 115.0);
  const auto result = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_EQ(result.outcomes.size(), records.size());
  EXPECT_GT(result.mean_qoe, 0.0);
}

// Value of the named counter in a run's telemetry (0 when absent).
std::uint64_t CounterValue(const obs::TelemetrySnapshot& telemetry,
                           std::string_view name) {
  for (const auto& counter : telemetry.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// Pins every byte a small db-testbed run exports (results and both
// telemetry exports), so a faster read path or event loop must keep them as
// they are. The second run partitions a replica, so failover reads are
// pinned too; the third turns every resilience mechanism the db runs on,
// so hedge timers exercise the loop's Cancel path.
TEST(DbExperiment, OutputBytesArePinned) {
  const auto records = LoadedWorkload(600);
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.collect_telemetry = true;
  const auto steady = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_EQ(steady.failed_over, 0u);
  EXPECT_EQ(Fnv1a64(steady.Serialize()), 0x62931af484f4a6f6ULL);
  EXPECT_EQ(Fnv1a64(steady.telemetry.SerializeText()),
            0x2bc4e830095daf4eULL);
  EXPECT_EQ(Fnv1a64(steady.telemetry.SerializeJson()),
            0x8bf53b333da8864bULL);

  config.common.fault_plan =
      fault::FaultPlan::Parse("partition db r=0 t=[2s,6s]");
  const auto partitioned = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_GT(partitioned.failed_over, 0u);
  EXPECT_EQ(Fnv1a64(partitioned.Serialize()), 0xf8e262b12ab5cd5dULL);
  EXPECT_EQ(Fnv1a64(partitioned.telemetry.SerializeText()),
            0xd83c74de7f7da6dcULL);
  EXPECT_EQ(Fnv1a64(partitioned.telemetry.SerializeJson()),
            0x2c2e466078644d7dULL);

  config.common.fault_plan = fault::FaultPlan{};
  config.common.resilience = resilience::ResilienceConfig::DbAllOn();
  const auto resilient = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_GT(CounterValue(resilient.telemetry, "sim.loop.cancelled"), 0u);
  EXPECT_EQ(Fnv1a64(resilient.Serialize()), 0x62931af484f4a6f6ULL);
  EXPECT_EQ(Fnv1a64(resilient.telemetry.SerializeText()),
            0xee185b96056f7d29ULL);
  EXPECT_EQ(Fnv1a64(resilient.telemetry.SerializeJson()),
            0x5213867e1bd4e51eULL);
}

TEST(DbExperiment, EmptyRecordsThrow) {
  EXPECT_THROW(
      RunDbExperiment({}, TraceQoe(), FastDbConfig(DbPolicy::kDefault)),
      std::invalid_argument);
}

TEST(DbExperiment, RejectsEmptyTableAndZeroRowReads) {
  // Either config would "serve" every request with reads of nothing; the
  // error names the field.
  const auto records = LoadedWorkload(50);
  const auto expect_rejected = [&records](const DbExperimentConfig& config,
                                          const std::string& field) {
    try {
      RunDbExperiment(records, TraceQoe(), config);
      FAIL() << "expected std::invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  auto config = FastDbConfig(DbPolicy::kDefault);
  config.dataset_keys = 0;
  expect_rejected(config, "dataset_keys");
  config = FastDbConfig(DbPolicy::kE2e);
  config.range_count = 0;
  expect_rejected(config, "range_count");
}

// Admission control acts on the broker's queues; the read path has none, so
// the runner rejects it by name instead of running without it.
TEST(DbExperiment, RejectsAdmission) {
  const auto records = LoadedWorkload(50);
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.resilience = resilience::ResilienceConfig::DbAllOn();
  config.common.resilience.admission.enabled = true;
  try {
    RunDbExperiment(records, TraceQoe(), config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resilience.admission"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("RunBrokerExperiment"),
              std::string::npos)
        << e.what();
  }
}

TEST(DbExperiment, RejectsAbandonment) {
  const auto records = LoadedWorkload(50);
  auto config = FastDbConfig(DbPolicy::kE2e);
  config.common.abandonment.enabled = true;
  ExpectRejectsAbandonment(
      [&] { RunDbExperiment(records, TraceQoe(), config); });
}

// ---- Broker experiment --------------------------------------------------------

BrokerExperimentConfig FastBrokerConfig(BrokerPolicy policy) {
  BrokerExperimentConfig config;
  config.policy = policy;
  config.common.speedup = 1.0;
  config.broker.priority_levels = 6;
  config.broker.consume_interval_ms = 18.0;  // ~55/s capacity vs 60/s load.
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 10;
  return config;
}

TEST(BrokerExperiment, AllMessagesDelivered) {
  const auto records = LoadedWorkload(800);
  const auto result = RunBrokerExperiment(records, TraceQoe(),
                                          FastBrokerConfig(BrokerPolicy::kDefault));
  EXPECT_EQ(result.outcomes.size(), records.size());
  EXPECT_GT(result.mean_server_delay_ms, 0.0);
}

TEST(BrokerExperiment, E2eBeatsFifoUnderLoad) {
  const auto records = LoadedWorkload(3000, 31);
  const auto fifo = RunBrokerExperiment(
      records, TraceQoe(), FastBrokerConfig(BrokerPolicy::kDefault));
  const auto e2e = RunBrokerExperiment(records, TraceQoe(),
                                       FastBrokerConfig(BrokerPolicy::kE2e));
  EXPECT_EQ(fifo.outcomes.size(), e2e.outcomes.size());
  EXPECT_GT(e2e.mean_qoe, fifo.mean_qoe);
}

TEST(BrokerExperiment, E2eBeatsDeadlineScheduling) {
  const auto records = LoadedWorkload(3000, 37);
  auto deadline_config = FastBrokerConfig(BrokerPolicy::kDeadline);
  deadline_config.deadline_ms = 3400.0;
  const auto deadline =
      RunBrokerExperiment(records, TraceQoe(), deadline_config);
  const auto e2e = RunBrokerExperiment(records, TraceQoe(),
                                       FastBrokerConfig(BrokerPolicy::kE2e));
  EXPECT_GT(e2e.mean_qoe, deadline.mean_qoe);
}

// Pins every byte a small broker-testbed run exports, as
// DbExperiment.OutputBytesArePinned does for the db testbed: the consumers'
// periodic pulls are the loop's in-order timers. The second run turns every
// resilience mechanism the broker runs on under drops and an overload, so
// the retry, breaker and admission paths are pinned too.
TEST(BrokerExperiment, OutputBytesArePinned) {
  const auto records = LoadedWorkload(800);
  auto config = FastBrokerConfig(BrokerPolicy::kE2e);
  config.common.collect_telemetry = true;
  const auto result = RunBrokerExperiment(records, TraceQoe(), config);
  EXPECT_EQ(result.outcomes.size(), records.size());
  EXPECT_EQ(Fnv1a64(result.Serialize()), 0x62b3b25e496ec6f1ULL);
  EXPECT_EQ(Fnv1a64(result.telemetry.SerializeText()),
            0x187ae41abf9165dcULL);
  EXPECT_EQ(Fnv1a64(result.telemetry.SerializeJson()),
            0x85c4de69c95290a3ULL);

  config.common.resilience = resilience::ResilienceConfig::BrokerAllOn();
  config.common.fault_plan = fault::FaultPlan::Parse(
      "drop broker p=0.2 seed=9 t=[0s,10m]; overload broker x4 t=[2s,8s]");
  const auto resilient = RunBrokerExperiment(records, TraceQoe(), config);
  EXPECT_GT(resilient.resilience.retries, 0u);
  EXPECT_GT(resilient.resilience.breaker_opens, 0u);
  EXPECT_GT(resilient.resilience.shed, 0u);
  EXPECT_EQ(Fnv1a64(resilient.Serialize()), 0x76e24c70b1bfd5b7ULL);
  EXPECT_EQ(Fnv1a64(resilient.telemetry.SerializeText()),
            0xe6d024178593dd62ULL);
  EXPECT_EQ(Fnv1a64(resilient.telemetry.SerializeJson()),
            0x92267e9978bef34aULL);
}

TEST(BrokerExperiment, EmptyRecordsThrow) {
  EXPECT_THROW(RunBrokerExperiment({}, TraceQoe(),
                                   FastBrokerConfig(BrokerPolicy::kDefault)),
               std::invalid_argument);
}

TEST(BrokerExperiment, RejectsAbandonment) {
  const auto records = LoadedWorkload(50);
  auto config = FastBrokerConfig(BrokerPolicy::kE2e);
  config.common.abandonment.enabled = true;
  ExpectRejectsAbandonment(
      [&] { RunBrokerExperiment(records, TraceQoe(), config); });
}

// A publish has no hedge path, so model-driven hedge gates would gate
// nothing: the runner rejects the mode by name instead of ignoring it.
TEST(BrokerExperiment, RejectsModelDrivenHedging) {
  const auto records = LoadedWorkload(50);
  auto config = FastBrokerConfig(BrokerPolicy::kE2e);
  config.common.resilience = resilience::ResilienceConfig::ModelDriven();
  try {
    RunBrokerExperiment(records, TraceQoe(), config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resilience.hedge.mode"),
              std::string::npos)
        << e.what();
  }
}

// Static hedge gates gate nothing either: the runner rejects hedging in
// every mode.
TEST(BrokerExperiment, RejectsStaticHedging) {
  const auto records = LoadedWorkload(50);
  auto config = FastBrokerConfig(BrokerPolicy::kE2e);
  config.common.resilience = resilience::ResilienceConfig::BrokerAllOn();
  config.common.resilience.hedge.enabled = true;
  ASSERT_EQ(config.common.resilience.hedge.mode,
            resilience::HedgeMode::kStatic);
  try {
    RunBrokerExperiment(records, TraceQoe(), config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resilience.hedge"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("RunDbExperiment"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace e2e
