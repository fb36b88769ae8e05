#include "testbed/multi_agent.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/export.h"
#include "sim/event_loop.h"
#include "testbed/broker_experiment.h"
#include "trace/replay.h"

namespace e2e {
namespace {

// Picks the agent for a record under the sharding scheme.
std::size_t AgentOf(const TraceRecord& rec, AgentSharding sharding,
                    std::size_t num_agents, std::size_t arrival_index,
                    std::span<const double> shard_edges) {
  switch (sharding) {
    case AgentSharding::kRoundRobin:
      return arrival_index % num_agents;
    case AgentSharding::kByExternalDelay: {
      // shard_edges are ascending quantile cuts (size num_agents - 1).
      std::size_t agent = 0;
      while (agent < shard_edges.size() &&
             rec.external_delay_ms >= shard_edges[agent]) {
        ++agent;
      }
      return agent;
    }
  }
  throw std::logic_error("AgentOf: unknown sharding");
}

}  // namespace

ExperimentResult RunMultiAgentExperiment(std::span<const TraceRecord> records,
                                         const QoeModel& qoe,
                                         const MultiAgentConfig& config) {
  if (records.empty()) {
    throw std::invalid_argument("RunMultiAgentExperiment: no records");
  }
  if (config.num_agents < 1) {
    throw std::invalid_argument("RunMultiAgentExperiment: num_agents < 1");
  }
  RequireNoFaultPlan(config.common, "RunMultiAgentExperiment");
  RequireNoResilience(config.common, "RunMultiAgentExperiment");
  RequireNoAbandonment(config.common, "RunMultiAgentExperiment");
  EventLoop loop;
  const EventLoopClock loop_clock(loop);
  const Clock* profile_clock = ProfileClock(config.common, &loop_clock);
  obs::Telemetry telemetry(config.common.collect_telemetry, &loop_clock);
  if (telemetry.enabled()) loop.AttachMetrics(telemetry.metrics);
  const auto num_agents = static_cast<std::size_t>(config.num_agents);

  // Quantile cuts for the pathological sharding.
  std::vector<double> externals;
  externals.reserve(records.size());
  for (const auto& r : records) externals.push_back(r.external_delay_ms);
  std::sort(externals.begin(), externals.end());
  std::vector<double> shard_edges;
  for (std::size_t a = 1; a < num_agents; ++a) {
    shard_edges.push_back(
        externals[a * externals.size() / num_agents]);
  }

  // One global controller; per-agent brokers with table schedulers.
  std::unique_ptr<Controller> controller;
  std::vector<std::shared_ptr<broker::TableScheduler>> schedulers;
  std::vector<std::unique_ptr<broker::MessageBroker>> agents;
  for (std::size_t a = 0; a < num_agents; ++a) {
    std::shared_ptr<broker::MessageScheduler> scheduler;
    if (config.use_e2e) {
      auto table = std::make_shared<broker::TableScheduler>(
          "agent-" + std::to_string(a));
      schedulers.push_back(table);
      scheduler = table;
    } else {
      scheduler = std::make_shared<broker::FifoScheduler>();
    }
    agents.push_back(std::make_unique<broker::MessageBroker>(
        loop, config.broker, std::move(scheduler)));
    if (telemetry.enabled()) {
      agents.back()->AttachMetrics(telemetry.metrics,
                                   "broker.agent" + std::to_string(a));
    }
  }
  if (config.use_e2e) {
    auto qoe_shared = std::shared_ptr<const QoeModel>(&qoe, [](auto*) {});
    // The global G sees the *aggregate* drain rate of all agents.
    auto aggregate = config.broker;
    aggregate.num_consumers *= config.num_agents;
    controller = std::make_unique<Controller>(
        "global", config.common.controller, qoe_shared,
        BuildBrokerServerModel(aggregate), config.common.seed, profile_clock);
    if (telemetry.enabled()) {
      controller->AttachTelemetry(telemetry.metrics, &telemetry.tracer,
                                  "ctrl.global");
    }
  }

  const auto schedule = BuildReplaySchedule(records, config.common.speedup);
  ExperimentResult result;
  result.outcomes.reserve(schedule.size());

  std::size_t arrival_index = 0;
  for (const auto& arrival : schedule) {
    const std::size_t agent =
        AgentOf(arrival.record, config.sharding, num_agents, arrival_index++,
                shard_edges);
    loop.Schedule(arrival.testbed_time_ms, [&, arrival, agent]() {
      const TraceRecord& rec = arrival.record;
      if (controller != nullptr) {
        controller->ObserveArrival(rec.external_delay_ms, loop.Now());
      }
      broker::Message message;
      message.id = rec.request_id;
      message.external_delay_ms = rec.external_delay_ms;
      const double publish_ms = loop.Now();
      agents[agent]->Publish(
          message, [&result, rec, publish_ms,
                    &qoe](const broker::Delivery& delivery) {
            RequestOutcome outcome;
            outcome.id = rec.request_id;
            outcome.arrival_ms = publish_ms;
            outcome.external_delay_ms = rec.external_delay_ms;
            outcome.server_delay_ms = delivery.QueueingDelayMs();
            outcome.qoe =
                qoe.Qoe(rec.external_delay_ms + outcome.server_delay_ms);
            outcome.decision = delivery.priority;
            result.outcomes.push_back(outcome);
          });
    });
  }

  const double horizon_ms = schedule.back().testbed_time_ms + 60000.0;
  if (controller != nullptr) {
    for (double t = config.common.tick_interval_ms; t <= horizon_ms;
         t += config.common.tick_interval_ms) {
      loop.Schedule(t, [&]() {
        if (controller->Tick(loop.Now())) {
          const DecisionTable* table = controller->CurrentTable();
          if (table != nullptr) {
            // The same global table goes to every agent (§9).
            for (auto& scheduler : schedulers) scheduler->SetTable(*table);
          }
        }
      });
    }
  }

  loop.RunUntil(horizon_ms);
  for (auto& agent : agents) agent->StopConsumers();
  loop.Run();

  for (const auto& agent : agents) {
    result.service_busy_ms += static_cast<double>(agent->delivered_count()) *
                              config.broker.handling_cost_ms;
  }
  if (controller != nullptr) result.controller_stats = controller->stats();
  if (telemetry.enabled()) result.telemetry = telemetry.Snapshot();
  result.Finalize();
  return result;
}

}  // namespace e2e
