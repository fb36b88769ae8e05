// Multi-agent deployment study (§9, "Deployment at scale / Multiple
// agents").
//
// A scaled web service runs many broker/client agents, each making
// decisions independently from the same *global* decision lookup table.
// The paper notes a pathology it did not evaluate: if requests are load
// balanced poorly across agents, an agent that only sees insensitive
// requests will put them at the head of its queue — the global table's
// priorities only help when each agent sees a mix. This harness builds
// both the well-balanced and the pathological split and measures the cost.
#pragma once

#include <span>
#include <vector>

#include "broker/broker.h"
#include "qoe/qoe_model.h"
#include "testbed/experiment_config.h"
#include "testbed/metrics.h"
#include "trace/record.h"

namespace e2e {

/// How incoming requests are spread across the agents.
enum class AgentSharding {
  kRoundRobin,      ///< Each agent sees a uniform mix (healthy).
  kByExternalDelay, ///< Agents specialize by external-delay range
                    ///< (pathological: some agents see only one class).
};

/// Multi-agent experiment configuration. Shared knobs live in `common`;
/// this runner has no fault-injection hooks, so `common.fault_plan` must
/// stay empty (the runner throws otherwise).
struct MultiAgentConfig {
  ExperimentConfig common = ExperimentConfig::WithSeed(101);
  int num_agents = 4;
  broker::BrokerParams broker;  ///< Per-agent broker parameters.
  AgentSharding sharding = AgentSharding::kRoundRobin;
  bool use_e2e = true;  ///< false = FIFO on every agent.
};

/// Runs the experiment: one global controller observes all arrivals and
/// publishes one table; each agent applies it to its own queue bank. A
/// fault plan, an enabled resilience mechanism or abandonment throws
/// std::invalid_argument: this runner models none of them.
ExperimentResult RunMultiAgentExperiment(std::span<const TraceRecord> records,
                                         const QoeModel& qoe,
                                         const MultiAgentConfig& config);

}  // namespace e2e
