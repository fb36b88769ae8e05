// Tests for the §9 / Appendix A extensions: multi-agent deployment,
// cross-service dependencies, and the incentive theorem.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "fnv1a.h"
#include "qoe/sigmoid_model.h"
#include "testbed/multi_agent.h"
#include "testbed/multi_service.h"
#include "matching/assignment.h"
#include "testbed/workloads.h"
#include "util/rng.h"

namespace e2e {
namespace {

const SigmoidQoeModel& TraceQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

std::vector<TraceRecord> Workload(std::size_t n, double rps,
                                  std::uint64_t seed = 41) {
  SyntheticWorkloadParams params;
  params.num_requests = n;
  params.rps = rps;
  params.seed = seed;
  return MakeSyntheticWorkload(params);
}

// Runs `run` and expects std::invalid_argument whose message names `field`.
void ExpectRejected(const std::function<void()>& run,
                    const std::string& field) {
  try {
    run();
    ADD_FAILURE() << "expected std::invalid_argument for " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

// ---- Multi-agent -----------------------------------------------------------

MultiAgentConfig AgentConfig(AgentSharding sharding, bool use_e2e) {
  MultiAgentConfig config;
  config.num_agents = 4;
  config.sharding = sharding;
  config.use_e2e = use_e2e;
  // 4 agents x one consumer per 20 ms = 200 msg/s aggregate capacity.
  config.broker.priority_levels = 6;
  config.broker.consume_interval_ms = 20.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 12;
  return config;
}

TEST(MultiAgent, AllMessagesDelivered) {
  const auto records = Workload(1200, 150.0);
  const auto result = RunMultiAgentExperiment(
      records, TraceQoe(), AgentConfig(AgentSharding::kRoundRobin, true));
  EXPECT_EQ(result.outcomes.size(), records.size());
  EXPECT_GT(result.mean_qoe, 0.0);
}

TEST(MultiAgent, E2eBeatsFifoWhenBalanced) {
  // Offered near aggregate capacity so priorities matter.
  const auto records = Workload(4000, 195.0, 43);
  const auto fifo = RunMultiAgentExperiment(
      records, TraceQoe(), AgentConfig(AgentSharding::kRoundRobin, false));
  const auto e2e = RunMultiAgentExperiment(
      records, TraceQoe(), AgentConfig(AgentSharding::kRoundRobin, true));
  EXPECT_GT(e2e.mean_qoe, fifo.mean_qoe);
}

TEST(MultiAgent, PoorShardingErodesTheGain) {
  // The paper's §9 pathology: agents specialized by external delay see
  // homogeneous traffic, so the global table cannot reorder anything
  // within an agent — the E2E gain shrinks vs balanced sharding.
  const auto records = Workload(4000, 195.0, 47);
  const auto fifo = RunMultiAgentExperiment(
      records, TraceQoe(), AgentConfig(AgentSharding::kRoundRobin, false));
  const auto balanced = RunMultiAgentExperiment(
      records, TraceQoe(), AgentConfig(AgentSharding::kRoundRobin, true));
  const auto sharded = RunMultiAgentExperiment(
      records, TraceQoe(),
      AgentConfig(AgentSharding::kByExternalDelay, true));
  const double gain_balanced = balanced.mean_qoe - fifo.mean_qoe;
  const double gain_sharded = sharded.mean_qoe - fifo.mean_qoe;
  EXPECT_LT(gain_sharded, gain_balanced);
}

TEST(MultiAgent, InvalidConfigThrows) {
  const auto records = Workload(10, 10.0);
  auto config = AgentConfig(AgentSharding::kRoundRobin, true);
  config.num_agents = 0;
  EXPECT_THROW(RunMultiAgentExperiment(records, TraceQoe(), config),
               std::invalid_argument);
  EXPECT_THROW(RunMultiAgentExperiment({}, TraceQoe(),
                                       AgentConfig(AgentSharding::kRoundRobin,
                                                   true)),
               std::invalid_argument);
}

// The runner models neither the resilience layer nor session quits, so
// either setting is rejected by name instead of being ignored.
TEST(MultiAgent, RejectsResilienceAndAbandonment) {
  const auto records = Workload(10, 10.0);
  auto config = AgentConfig(AgentSharding::kRoundRobin, true);
  config.common.resilience.hedge.enabled = true;
  ExpectRejected([&] { RunMultiAgentExperiment(records, TraceQoe(), config); },
                 "resilience.hedge");
  config = AgentConfig(AgentSharding::kRoundRobin, true);
  config.common.abandonment.enabled = true;
  ExpectRejected([&] { RunMultiAgentExperiment(records, TraceQoe(), config); },
                 "abandonment.enabled");
}

// Pins every byte one E2E run exports (results and both telemetry
// exports): the global table goes to every agent's table scheduler.
TEST(MultiAgent, OutputBytesArePinned) {
  const auto records = Workload(1500, 190.0, 43);
  auto config = AgentConfig(AgentSharding::kRoundRobin, true);
  config.common.collect_telemetry = true;
  const auto result = RunMultiAgentExperiment(records, TraceQoe(), config);
  EXPECT_EQ(result.outcomes.size(), records.size());
  EXPECT_EQ(Fnv1a64(result.Serialize()), 0x070aea43f8d866eeULL);
  EXPECT_EQ(Fnv1a64(result.telemetry.SerializeText()), 0x3de146873ec04b82ULL);
  EXPECT_EQ(Fnv1a64(result.telemetry.SerializeJson()), 0xe36f8a6b9078c73bULL);
}

// ---- Multi-service ----------------------------------------------------------

MultiServiceConfig ServiceConfig(CrossServiceMode mode, bool use_e2e) {
  MultiServiceConfig config;
  config.mode = mode;
  config.use_e2e = use_e2e;
  // Service A near capacity; service B clearly slower (gating).
  config.service_a.priority_levels = 6;
  config.service_a.consume_interval_ms = 13.0;
  config.service_b.priority_levels = 6;
  config.service_b.consume_interval_ms = 15.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 12;
  return config;
}

TEST(MultiService, AllRequestsJoinBothLegs) {
  const auto records = Workload(1000, 60.0);
  const auto result = RunMultiServiceExperiment(
      records, TraceQoe(), ServiceConfig(CrossServiceMode::kIsolated, true));
  EXPECT_EQ(result.outcomes.size(), records.size());
  for (const auto& o : result.outcomes) {
    EXPECT_GT(o.server_delay_ms, 0.0);  // Max of two positive legs.
  }
}

TEST(MultiService, ServerDelayIsSlowestLeg) {
  // Under FIFO with a clearly slower service B, the joined delay must be
  // at least B's typical queueing delay.
  const auto records = Workload(1500, 70.0, 53);
  const auto result = RunMultiServiceExperiment(
      records, TraceQoe(), ServiceConfig(CrossServiceMode::kIsolated, false));
  EXPECT_GT(result.mean_server_delay_ms, 7.0);  // > B's half-interval.
}

TEST(MultiService, DependencyAwareBeatsIsolated) {
  // The §9 claim this extension prototypes: accounting for the sibling
  // service's expected delay yields at least as good QoE as optimizing in
  // isolation.
  const auto records = Workload(4000, 72.0, 59);
  const auto isolated = RunMultiServiceExperiment(
      records, TraceQoe(), ServiceConfig(CrossServiceMode::kIsolated, true));
  const auto aware = RunMultiServiceExperiment(
      records, TraceQoe(),
      ServiceConfig(CrossServiceMode::kDependencyAware, true));
  EXPECT_GE(aware.mean_qoe, isolated.mean_qoe - 0.002);
}

// Pins every byte one dependency-aware E2E run exports. Both services run
// E2E, so each request's effective external delay reads the sibling's
// installed table.
TEST(MultiService, OutputBytesArePinned) {
  const auto records = Workload(1500, 72.0, 59);
  auto config = ServiceConfig(CrossServiceMode::kDependencyAware, true);
  config.service_b_legacy_fifo = false;
  config.common.collect_telemetry = true;
  const auto result = RunMultiServiceExperiment(records, TraceQoe(), config);
  EXPECT_EQ(result.outcomes.size(), records.size());
  EXPECT_EQ(Fnv1a64(result.Serialize()), 0x04f128f2c1d6fee6ULL);
  EXPECT_EQ(Fnv1a64(result.telemetry.SerializeText()), 0x8b990f1815a82d05ULL);
  EXPECT_EQ(Fnv1a64(result.telemetry.SerializeJson()), 0x86fffc72e0fbe8a6ULL);
}

// Each service's deliveries are metered at its own handling cost.
TEST(MultiService, BusyTimeChargesEachServiceItsOwnCost) {
  const auto records = Workload(400, 40.0);
  auto config = ServiceConfig(CrossServiceMode::kIsolated, false);
  const auto base = RunMultiServiceExperiment(records, TraceQoe(), config);
  config.service_b.handling_cost_ms *= 10.0;
  const auto costly = RunMultiServiceExperiment(records, TraceQoe(), config);
  EXPECT_GT(costly.service_busy_ms, base.service_busy_ms);
}

TEST(MultiService, EmptyRecordsThrow) {
  EXPECT_THROW(RunMultiServiceExperiment(
                   {}, TraceQoe(),
                   ServiceConfig(CrossServiceMode::kIsolated, true)),
               std::invalid_argument);
}

TEST(MultiService, RejectsResilienceAndAbandonment) {
  const auto records = Workload(10, 10.0);
  auto config = ServiceConfig(CrossServiceMode::kIsolated, true);
  config.common.resilience.retry.enabled = true;
  ExpectRejected(
      [&] { RunMultiServiceExperiment(records, TraceQoe(), config); },
      "resilience.retry");
  config = ServiceConfig(CrossServiceMode::kIsolated, true);
  config.common.abandonment.enabled = true;
  ExpectRejected(
      [&] { RunMultiServiceExperiment(records, TraceQoe(), config); },
      "abandonment.enabled");
}

// ---- Theorem 1 (Appendix A): incentive to improve latency -----------------

TEST(IncentiveTheorem, NoGroupGainWithoutLowerExternalDelay) {
  // For monotone Q and any delay assignments: if no request's external
  // delay improved (c' >= c componentwise), total QoE under the *optimal*
  // assignment for C' cannot exceed the optimal total for C. Randomized
  // check against the matching solver.
  const auto& qoe = TraceQoe();
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6;
    std::vector<double> c(n), c_worse(n), s(n);
    for (int i = 0; i < n; ++i) {
      c[static_cast<std::size_t>(i)] = rng.Uniform(200.0, 9000.0);
      c_worse[static_cast<std::size_t>(i)] =
          c[static_cast<std::size_t>(i)] + rng.Uniform(0.0, 3000.0);
      s[static_cast<std::size_t>(i)] = rng.Uniform(20.0, 2500.0);
    }
    auto best_total = [&](const std::vector<double>& externals) {
      WeightMatrix weights(static_cast<std::size_t>(n),
                           static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
        for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
          weights.At(i, j) = qoe.Qoe(externals[i] + s[j]);
        }
      }
      return SolveMaxWeightAssignment(weights).total;
    };
    EXPECT_LE(best_total(c_worse), best_total(c) + 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace e2e
