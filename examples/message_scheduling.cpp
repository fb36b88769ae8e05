// Use case #2 (Sec 6): QoE-aware message scheduling in the RabbitMQ-like
// broker. Publishes a synthetic workload near the consumer's capacity and
// compares FIFO, a Timecard-style deadline scheduler, and E2E.
//
//   ./examples/message_scheduling [--rps=75] [--requests=6000]
#include <iostream>

#include "qoe/sigmoid_model.h"
#include "testbed/broker_experiment.h"
#include "testbed/metrics.h"
#include "testbed/workloads.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace e2e;

BrokerExperimentConfig DemoConfig(BrokerPolicy policy) {
  BrokerExperimentConfig config;
  config.policy = policy;
  config.common.speedup = 1.0;
  config.broker.priority_levels = 8;
  config.broker.consume_interval_ms = 12.0;  // ~83 msg/s capacity.
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.policy.target_buckets = 16;
  config.deadline_ms = 3400.0;
  config.deadline_max_slack_ms = 4000.0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"rps", "requests"});
  SyntheticWorkloadParams workload;
  workload.rps = flags.GetDouble("rps", 82.0);
  workload.num_requests =
      static_cast<std::size_t>(flags.GetInt("requests", 6000));
  const auto records = MakeSyntheticWorkload(workload);
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();

  std::cout << "Message scheduling demo: " << workload.num_requests
            << " messages at " << workload.rps
            << " rps vs ~83 msg/s consumer capacity\n\n";

  TextTable table({"Policy", "Mean QoE", "Mean queueing delay (ms)",
                   "p95 queueing delay (ms)"});
  for (auto policy : {BrokerPolicy::kDefault, BrokerPolicy::kDeadline,
                      BrokerPolicy::kSlope, BrokerPolicy::kE2e}) {
    const auto result = RunBrokerExperiment(records, qoe, DemoConfig(policy));
    std::vector<double> delays;
    delays.reserve(result.outcomes.size());
    for (const auto& o : result.outcomes) delays.push_back(o.server_delay_ms);
    std::sort(delays.begin(), delays.end());
    const double p95 = delays[static_cast<std::size_t>(
        0.95 * static_cast<double>(delays.size() - 1))];
    const char* name = policy == BrokerPolicy::kDefault    ? "FIFO (default)"
                       : policy == BrokerPolicy::kDeadline ? "deadline (Timecard)"
                       : policy == BrokerPolicy::kSlope    ? "slope-based"
                                                           : "E2E";
    table.AddRow({name, TextTable::Num(result.mean_qoe, 3),
                  TextTable::Num(result.mean_server_delay_ms, 0),
                  TextTable::Num(p95, 0)});
  }
  table.Render(std::cout);

  std::cout << "\nNote how E2E's *mean delay* can be higher than FIFO's while "
               "its QoE is better:\nthe queueing it adds lands on messages "
               "whose QoE cannot get worse (Sec 2, Fig. 1).\n";
  return 0;
}
