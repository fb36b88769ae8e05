#include "testbed/multi_service.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/export.h"
#include "sim/event_loop.h"
#include "testbed/broker_experiment.h"
#include "trace/replay.h"

namespace e2e {
namespace {

// One service's moving parts.
struct Service {
  std::shared_ptr<broker::TableScheduler> scheduler;
  std::unique_ptr<broker::MessageBroker> broker;
  std::unique_ptr<Controller> controller;
  // Realized mean queueing delay per priority level (EWMA), used to
  // predict the residual delay of a request routed through this service.
  std::vector<double> delay_by_priority;
  double overall_delay_ewma = 0.0;
  bool has_delay = false;

  void RecordDelivery(const broker::Delivery& delivery) {
    constexpr double kAlpha = 0.05;
    if (delay_by_priority.empty()) return;
    auto& slot = delay_by_priority[static_cast<std::size_t>(
        std::min<int>(delivery.priority,
                      static_cast<int>(delay_by_priority.size()) - 1))];
    slot = slot == 0.0 ? delivery.QueueingDelayMs()
                       : (1.0 - kAlpha) * slot +
                             kAlpha * delivery.QueueingDelayMs();
    overall_delay_ewma =
        !has_delay ? delivery.QueueingDelayMs()
                   : (1.0 - kAlpha) * overall_delay_ewma +
                         kAlpha * delivery.QueueingDelayMs();
    has_delay = true;
  }

  // Predicted residual delay for a request with this (raw) external delay:
  // look its priority up in the installed table and use that level's
  // realized mean; before any table/history exists, fall back to the
  // overall mean.
  double PredictDelayMs(DelayMs raw_external) const {
    if (scheduler != nullptr && scheduler->HasTable() &&
        !delay_by_priority.empty()) {
      const int priority = scheduler->table().Lookup(raw_external);
      const double known = delay_by_priority[static_cast<std::size_t>(
          std::min<int>(priority,
                        static_cast<int>(delay_by_priority.size()) - 1))];
      if (known > 0.0) return known;
    }
    return has_delay ? overall_delay_ewma : 0.0;
  }
};

// Join state for one request: completes when all expected legs confirmed.
struct Join {
  double publish_ms = 0.0;
  DelayMs external_ms = 0.0;
  RequestId id = 0;
  int legs_expected = 1;
  int legs_done = 0;
  DelayMs slowest_leg_ms = 0.0;
};

}  // namespace

ExperimentResult RunMultiServiceExperiment(
    std::span<const TraceRecord> records, const QoeModel& qoe,
    const MultiServiceConfig& config) {
  if (records.empty()) {
    throw std::invalid_argument("RunMultiServiceExperiment: no records");
  }
  RequireNoFaultPlan(config.common, "RunMultiServiceExperiment");
  RequireNoResilience(config.common, "RunMultiServiceExperiment");
  RequireNoAbandonment(config.common, "RunMultiServiceExperiment");
  EventLoop loop;
  const EventLoopClock loop_clock(loop);
  const Clock* profile_clock = ProfileClock(config.common, &loop_clock);
  obs::Telemetry telemetry(config.common.collect_telemetry, &loop_clock);
  if (telemetry.enabled()) loop.AttachMetrics(telemetry.metrics);
  auto qoe_shared = std::shared_ptr<const QoeModel>(&qoe, [](auto*) {});

  Service services[2];
  const broker::BrokerParams* params[2] = {&config.service_a,
                                           &config.service_b};
  for (int s = 0; s < 2; ++s) {
    services[s].delay_by_priority.assign(
        static_cast<std::size_t>(params[s]->priority_levels), 0.0);
    const bool service_uses_e2e =
        config.use_e2e && !(s == 1 && config.service_b_legacy_fifo);
    if (service_uses_e2e) {
      services[s].scheduler = std::make_shared<broker::TableScheduler>(
          std::string("service-") + (s == 0 ? "a" : "b"));
      services[s].broker = std::make_unique<broker::MessageBroker>(
          loop, *params[s], services[s].scheduler);
      services[s].controller = std::make_unique<Controller>(
          std::string("ctrl-") + (s == 0 ? "a" : "b"),
          config.common.controller, qoe_shared,
          BuildBrokerServerModel(*params[s]),
          config.common.seed + static_cast<std::uint64_t>(s), profile_clock);
      if (telemetry.enabled()) {
        services[s].controller->AttachTelemetry(
            telemetry.metrics, &telemetry.tracer,
            std::string("ctrl.service_") + (s == 0 ? "a" : "b"));
      }
    } else {
      services[s].broker = std::make_unique<broker::MessageBroker>(
          loop, *params[s], std::make_shared<broker::FifoScheduler>());
    }
    if (telemetry.enabled()) {
      services[s].broker->AttachMetrics(
          telemetry.metrics,
          std::string("broker.service_") + (s == 0 ? "a" : "b"));
    }
  }

  const auto schedule = BuildReplaySchedule(records, config.common.speedup);
  ExperimentResult result;
  result.outcomes.reserve(schedule.size());
  std::map<RequestId, Join> joins;
  Rng fanout_rng(config.common.seed ^ 0x5AULL);

  auto complete_leg = [&](RequestId id, const broker::Delivery& delivery) {
    auto it = joins.find(id);
    if (it == joins.end()) return;
    Join& join = it->second;
    join.slowest_leg_ms =
        std::max(join.slowest_leg_ms, delivery.QueueingDelayMs());
    if (++join.legs_done < join.legs_expected) return;
    RequestOutcome outcome;
    outcome.id = id;
    outcome.arrival_ms = join.publish_ms;
    outcome.external_delay_ms = join.external_ms;
    outcome.server_delay_ms = join.slowest_leg_ms;  // Aggregation waits.
    outcome.qoe = qoe.Qoe(join.external_ms + join.slowest_leg_ms);
    result.outcomes.push_back(outcome);
    joins.erase(it);
  };

  for (const auto& arrival : schedule) {
    const bool needs_b = fanout_rng.Bernoulli(config.fanout_probability);
    loop.Schedule(arrival.testbed_time_ms, [&, arrival, needs_b]() {
      const TraceRecord& rec = arrival.record;
      Join join;
      join.publish_ms = loop.Now();
      join.external_ms = rec.external_delay_ms;
      join.id = rec.request_id;
      join.legs_expected = needs_b ? 2 : 1;
      joins.emplace(rec.request_id, join);

      const int last_service = needs_b ? 1 : 0;
      for (int s = 0; s <= last_service; ++s) {
        // In dependency-aware mode, the delay service A sees for a request
        // that also needs the slower service B includes B's expected
        // residual delay: if B will hold the request for seconds anyway,
        // A should not spend a fast slot on it (the paper's Fig. 11
        // argument lifted across services). A service with no controller
        // (legacy FIFO) reads no external delay, so its leg asks for none.
        DelayMs effective_external = rec.external_delay_ms;
        if (config.mode == CrossServiceMode::kDependencyAware && needs_b &&
            services[s].controller != nullptr) {
          effective_external +=
              services[1 - s].PredictDelayMs(rec.external_delay_ms);
        }
        if (services[s].controller != nullptr) {
          services[s].controller->ObserveArrival(effective_external,
                                                 loop.Now());
        }
        broker::Message message;
        message.id = rec.request_id;
        message.external_delay_ms = effective_external;
        services[s].broker->Publish(
            message, [&, s](const broker::Delivery& delivery) {
              services[s].RecordDelivery(delivery);
              complete_leg(delivery.message.id, delivery);
            });
      }
    });
  }

  const double horizon_ms = schedule.back().testbed_time_ms + 60000.0;
  if (config.use_e2e) {
    for (double t = config.common.tick_interval_ms; t <= horizon_ms;
         t += config.common.tick_interval_ms) {
      loop.Schedule(t, [&]() {
        for (auto& service : services) {
          if (service.controller == nullptr) continue;
          if (service.controller->Tick(loop.Now())) {
            const DecisionTable* table = service.controller->CurrentTable();
            if (table != nullptr) {
              service.scheduler->SetTable(*table);
            }
          }
        }
      });
    }
  }

  loop.RunUntil(horizon_ms);
  for (auto& service : services) service.broker->StopConsumers();
  loop.Run();

  for (int s = 0; s < 2; ++s) {
    result.service_busy_ms +=
        static_cast<double>(services[s].broker->delivered_count()) *
        params[s]->handling_cost_ms;
  }
  if (telemetry.enabled()) result.telemetry = telemetry.Snapshot();
  result.Finalize();
  return result;
}

}  // namespace e2e
