#include "testbed/broker_experiment.h"

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "obs/export.h"
#include "obs/trace_span.h"
#include "resilience/admission.h"
#include "resilience/circuit_breaker.h"
#include "resilience/retry_policy.h"
#include "sim/event_loop.h"

namespace e2e {
namespace {

// Per-priority-queue circuit breaking as a scheduler decorator: a queue
// whose recent deliveries kept breaching the slow threshold is taken out of
// rotation, and messages assigned to it reroute to the nearest queue (in
// priority distance, higher priority preferred on ties) whose breaker
// admits. The experiment feeds delivery outcomes back via RecordDelivery.
class BreakerScheduler final : public broker::MessageScheduler {
 public:
  BreakerScheduler(std::shared_ptr<broker::MessageScheduler> inner,
                   const resilience::BreakerConfig& config, int levels,
                   EventLoop& loop)
      : inner_(std::move(inner)), config_(config), loop_(loop) {
    breakers_.reserve(static_cast<std::size_t>(levels));
    slowness_.reserve(static_cast<std::size_t>(levels));
    for (int i = 0; i < levels; ++i) {
      breakers_.emplace_back(config_);
      slowness_.emplace_back(config_);
    }
    spans_.resize(static_cast<std::size_t>(levels));
  }

  int AssignPriority(const broker::Message& message,
                     const broker::BrokerView& view) override {
    const int base = inner_->AssignPriority(message, view);
    const double now = loop_.Now();
    if (breakers_[static_cast<std::size_t>(base)].AllowRequest(now)) {
      return base;
    }
    const int levels = static_cast<int>(breakers_.size());
    for (int off = 1; off < levels; ++off) {
      for (const int cand : {base - off, base + off}) {
        if (cand < 0 || cand >= levels) continue;
        auto& breaker = breakers_[static_cast<std::size_t>(cand)];
        if (breaker.WouldAllow(now) && breaker.AllowRequest(now)) {
          ++reroutes_;
          if (metric_reroutes_ != nullptr) metric_reroutes_->Increment();
          return cand;
        }
      }
    }
    return base;  // Every queue's breaker is open: the assignment stands.
  }

  std::string Name() const override { return inner_->Name() + "+breakers"; }

  /// Feeds one delivery's queueing delay back into its queue's breaker.
  /// The slow threshold adapts per queue (SlownessTracker): a low-priority
  /// queue waits long by design, and a fixed threshold would open its
  /// breaker on healthy traffic.
  void RecordDelivery(int priority, double queueing_delay_ms, double now_ms) {
    auto& breaker = breakers_[static_cast<std::size_t>(priority)];
    if (slowness_[static_cast<std::size_t>(priority)].RecordAndClassify(
            queueing_delay_ms)) {
      breaker.RecordFailure(now_ms);
    } else {
      breaker.RecordSuccess(now_ms);
    }
  }

  /// resilience.breaker_transitions / .breaker_reroutes counters plus one
  /// resilience.broker.p<i>.open span per breaker-open episode.
  void AttachTelemetry(obs::MetricsRegistry& registry, obs::Tracer* tracer) {
    metric_transitions_ =
        &registry.AddCounter("resilience.breaker_transitions");
    metric_reroutes_ = &registry.AddCounter("resilience.breaker_reroutes");
    tracer_ = tracer;
  }

  std::uint64_t reroutes() const { return reroutes_; }

  resilience::BreakerStats TotalStats() const {
    resilience::BreakerStats total;
    for (const auto& breaker : breakers_) {
      total.opens += breaker.stats().opens;
      total.half_opens += breaker.stats().half_opens;
      total.closes += breaker.stats().closes;
      total.rejections += breaker.stats().rejections;
    }
    return total;
  }

  /// Installs the transition hooks (call once, after AttachTelemetry when
  /// telemetry is on).
  void InstallHooks() {
    for (std::size_t i = 0; i < breakers_.size(); ++i) {
      breakers_[i].SetTransitionHook(
          [this, i](resilience::CircuitBreaker::State from,
                    resilience::CircuitBreaker::State to, double) {
            if (metric_transitions_ != nullptr) {
              metric_transitions_->Increment();
            }
            if (tracer_ == nullptr) return;
            if (to == resilience::CircuitBreaker::State::kOpen) {
              spans_[i] = tracer_->StartSpan("resilience.broker.p" +
                                             std::to_string(i) + ".open");
            } else if (from == resilience::CircuitBreaker::State::kOpen) {
              spans_[i].End();
            }
          });
    }
  }

 private:
  std::shared_ptr<broker::MessageScheduler> inner_;
  resilience::BreakerConfig config_;
  EventLoop& loop_;
  std::vector<resilience::CircuitBreaker> breakers_;
  std::vector<resilience::SlownessTracker> slowness_;  // One per queue.
  std::uint64_t reroutes_ = 0;
  obs::Counter* metric_transitions_ = nullptr;
  obs::Counter* metric_reroutes_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::vector<obs::Span> spans_;  // One per queue while open.
};

}  // namespace

std::shared_ptr<const ServerDelayModel> BuildBrokerServerModel(
    const broker::BrokerParams& params) {
  return std::make_shared<PriorityQueueModel>(
      params.priority_levels, params.consume_interval_ms, params.num_consumers,
      params.handling_cost_ms);
}

ExperimentResult RunBrokerExperiment(std::span<const TraceRecord> records,
                                     const QoeModel& qoe,
                                     const BrokerExperimentConfig& config) {
  if (records.empty()) {
    throw std::invalid_argument("RunBrokerExperiment: no records");
  }
  // Cloning a publish would deliver it twice, so the broker has no hedge
  // path, for static gates or for the cloning model's.
  if (config.common.resilience.hedge.enabled) {
    throw std::invalid_argument(
        "RunBrokerExperiment: resilience.hedge is not supported here in any "
        "resilience.hedge.mode; the broker has no hedge path, and "
        "RunDbExperiment runs it");
  }
  Rng root(config.common.seed);
  EventLoop loop;
  const EventLoopClock loop_clock(loop);
  const Clock* profile_clock = ProfileClock(config.common, &loop_clock);
  // Telemetry always runs on the virtual clock so exports stay
  // byte-identical even when stats profiling opts into the real clock.
  obs::Telemetry telemetry(config.common.collect_telemetry, &loop_clock);
  if (telemetry.enabled()) loop.AttachMetrics(telemetry.metrics);

  // --- Policy wiring -----------------------------------------------------
  std::shared_ptr<broker::MessageScheduler> scheduler;
  std::shared_ptr<broker::TableScheduler> table_scheduler;
  std::unique_ptr<ReplicatedControllerGroup> controllers;

  const bool uses_controller =
      config.policy == BrokerPolicy::kE2e || config.policy == BrokerPolicy::kSlope;
  switch (config.policy) {
    case BrokerPolicy::kDefault:
      scheduler = std::make_shared<broker::FifoScheduler>();
      break;
    case BrokerPolicy::kDeadline:
      scheduler = std::make_shared<broker::DeadlineScheduler>(
          config.deadline_ms, config.deadline_max_slack_ms);
      break;
    case BrokerPolicy::kSlope:
    case BrokerPolicy::kE2e:
      table_scheduler = std::make_shared<broker::TableScheduler>(
          config.policy == BrokerPolicy::kSlope ? "slope-table" : "e2e-table");
      scheduler = table_scheduler;
      break;
  }
  if (uses_controller) {
    auto qoe_shared = std::shared_ptr<const QoeModel>(&qoe, [](auto*) {});
    auto server_model = BuildBrokerServerModel(config.broker);
    ControllerConfig cc = config.common.controller;
    if (config.policy == BrokerPolicy::kSlope) {
      cc.policy.mapping = MappingAlgorithm::kSlopeBased;
    }
    auto make = [&](const char* name, std::uint64_t salt) {
      auto c = std::make_unique<Controller>(name, cc, qoe_shared, server_model,
                                            config.common.seed ^ salt,
                                            profile_clock);
      c->SetExternalDelayError(config.external_delay_error);
      c->SetRpsError(config.rps_error);
      if (telemetry.enabled()) {
        c->AttachTelemetry(telemetry.metrics, &telemetry.tracer,
                           std::string("ctrl.") + name);
      }
      return c;
    };
    controllers = std::make_unique<ReplicatedControllerGroup>(
        make("primary", 0x61ULL), make("backup", 0x62ULL));
  }

  // --- Resilience layer --------------------------------------------------
  const resilience::ResilienceConfig& resil = config.common.resilience;
  std::shared_ptr<BreakerScheduler> breaker_scheduler;
  if (resil.breaker.enabled) {
    breaker_scheduler = std::make_shared<BreakerScheduler>(
        scheduler, resil.breaker, config.broker.priority_levels, loop);
    scheduler = breaker_scheduler;
  }

  broker::MessageBroker broker(loop, config.broker, scheduler);
  if (telemetry.enabled()) broker.AttachMetrics(telemetry.metrics);

  std::unique_ptr<resilience::AdmissionController> admission;
  if (resil.admission.enabled) {
    admission =
        std::make_unique<resilience::AdmissionController>(resil.admission, qoe);
  }
  std::optional<resilience::RetryPolicy> retry;
  if (resil.retry.enabled) retry.emplace(resil.retry, root.Fork(5));
  obs::Counter* metric_retries = nullptr;
  obs::Counter* metric_retries_exhausted = nullptr;
  if (telemetry.enabled()) {
    if (admission != nullptr) admission->AttachMetrics(telemetry.metrics);
    if (breaker_scheduler != nullptr) {
      breaker_scheduler->AttachTelemetry(telemetry.metrics, &telemetry.tracer);
    }
    if (retry.has_value()) {
      metric_retries = &telemetry.metrics.AddCounter("resilience.retries");
      metric_retries_exhausted =
          &telemetry.metrics.AddCounter("resilience.retries_exhausted");
    }
  }
  if (breaker_scheduler != nullptr) breaker_scheduler->InstallHooks();

  // --- Session abandonment ----------------------------------------------
  // Same semantics as the db runner: keyed on the true external delay, the
  // session set only touched from (single-threaded) event-loop callbacks,
  // and the counter registered only when the model is live so stock
  // telemetry exports stay byte-identical.
  const AbandonmentModel abandonment(config.common.abandonment);
  std::unordered_set<std::uint64_t> abandoned_sessions;
  obs::Counter* metric_abandoned =
      abandonment.enabled()
          ? &telemetry.metrics.AddCounter("testbed.abandoned")
          : nullptr;

  // --- Replay ------------------------------------------------------------
  const auto schedule = BuildReplaySchedule(records, config.common.speedup);
  ExperimentResult result;
  result.outcomes.reserve(schedule.size());
  result.arrivals = schedule.size();

  // --- Fault plan --------------------------------------------------------
  // Dropped messages still produce an outcome (status kDropped) so every
  // arrival is accounted for. With retries on, the publish wrapper below
  // owns drop accounting instead (a drop may still be retried).
  if (!resil.retry.enabled) {
    broker.SetDropCallback(
        [&result](const broker::Message& message, double publish_ms) {
          RequestOutcome outcome;
          outcome.id = message.id;
          outcome.arrival_ms = publish_ms;
          outcome.external_delay_ms = message.external_delay_ms;
          outcome.status = RequestStatus::kDropped;
          result.outcomes.push_back(outcome);
        });
  }
  std::unique_ptr<fault::FaultInjector> injector;
  if (!config.common.fault_plan.empty()) {
    fault::FaultTargets targets;
    targets.controllers = controllers.get();
    targets.broker = &broker;
    targets.base_external_error = config.external_delay_error;
    if (controllers != nullptr) {
      auto* group = controllers.get();
      targets.apply_external_error = [group](double error) {
        group->SetExternalDelayError(error);
      };
    }
    injector = std::make_unique<fault::FaultInjector>(
        loop, config.common.fault_plan, std::move(targets));
    if (telemetry.enabled()) {
      injector->AttachTelemetry(telemetry.metrics, &telemetry.tracer);
    }
    injector->Arm();
  }

  // Publishes one message, retrying fault drops with jittered backoff when
  // the retry policy grants one; `forced_priority >= 0` pins an admission
  // downgrade across retries. With resilience off this reduces exactly to
  // the legacy publish-with-confirm (first_ms == the broker's publish time).
  // The backoff continuation re-enters it by reference, never owning it:
  // the loop drains before this function returns, and a callable that
  // owned itself would never be freed.
  std::function<void(broker::Message, int, double, int, std::uint64_t)>
      publish;
  publish = [&](broker::Message message, int failures, double first_ms,
                int forced_priority, std::uint64_t session_id) {
    auto confirm = [&result, &qoe, &loop, &abandonment, &abandoned_sessions,
                    metric_abandoned, first_ms,
                    breaker = breaker_scheduler.get(), id = message.id,
                    external = message.external_delay_ms,
                    session_id](const broker::Delivery& delivery) {
      if (breaker != nullptr) {
        breaker->RecordDelivery(delivery.priority, delivery.QueueingDelayMs(),
                                loop.Now());
      }
      RequestOutcome outcome;
      outcome.id = id;
      outcome.arrival_ms = first_ms;
      outcome.external_delay_ms = external;
      // The retry wait counts against the request: server-side delay runs
      // from the first publish attempt, not the one that got through.
      outcome.server_delay_ms = delivery.deliver_ms - first_ms;
      outcome.decision = delivery.priority;
      const double total_delay = external + outcome.server_delay_ms;
      if (abandonment.enabled() &&
          (abandoned_sessions.count(session_id) > 0 ||
           abandonment.Abandons(session_id, qoe.Classify(external),
                                total_delay))) {
        outcome.status = RequestStatus::kAbandoned;
        abandoned_sessions.insert(session_id);
        if (metric_abandoned != nullptr) metric_abandoned->Increment();
      } else {
        outcome.qoe = qoe.Qoe(total_delay);
      }
      result.outcomes.push_back(outcome);
    };
    const bool ok =
        forced_priority >= 0
            ? broker.PublishWithPriority(message, forced_priority,
                                         std::move(confirm))
            : broker.Publish(message, std::move(confirm));
    if (ok || !retry.has_value()) return;  // Drop callback covers the rest.
    const std::optional<double> backoff =
        retry->NextBackoffMs(failures + 1, loop.Now() - first_ms,
                             qoe.Classify(message.external_delay_ms));
    if (backoff.has_value()) {
      if (metric_retries != nullptr) metric_retries->Increment();
      loop.ScheduleAfter(*backoff, [&publish, message, failures, first_ms,
                                    forced_priority, session_id]() {
        publish(message, failures + 1, first_ms, forced_priority, session_id);
      });
      return;
    }
    if (metric_retries_exhausted != nullptr) {
      metric_retries_exhausted->Increment();
    }
    RequestOutcome outcome;  // Out of attempts/deadline/budget: lost.
    outcome.id = message.id;
    outcome.arrival_ms = first_ms;
    outcome.external_delay_ms = message.external_delay_ms;
    outcome.status = RequestStatus::kDropped;
    result.outcomes.push_back(outcome);
  };

  for (const auto& arrival : schedule) {
    loop.Schedule(arrival.testbed_time_ms, [&, arrival]() {
      const TraceRecord& rec = arrival.record;
      // A request from a session that already quit never reaches the
      // controller, admission, or the broker: the user is gone, so the
      // load is too.
      if (abandonment.enabled() &&
          abandoned_sessions.count(rec.session_id) > 0) {
        RequestOutcome outcome;
        outcome.id = rec.request_id;
        outcome.arrival_ms = loop.Now();
        outcome.external_delay_ms = rec.external_delay_ms;
        outcome.status = RequestStatus::kAbandoned;
        result.outcomes.push_back(outcome);
        if (metric_abandoned != nullptr) metric_abandoned->Increment();
        return;
      }
      if (controllers != nullptr) {
        controllers->ObserveArrival(rec.external_delay_ms, loop.Now());
      }
      broker::Message message;
      message.id = rec.request_id;
      message.external_delay_ms = rec.external_delay_ms;
      const double publish_ms = loop.Now();
      if (admission != nullptr) {
        int depth = 0;
        for (const int d : broker.View().queue_depths) depth += d;
        switch (admission->Decide(rec.external_delay_ms, depth)) {
          case resilience::AdmissionDecision::kShed: {
            RequestOutcome outcome;
            outcome.id = rec.request_id;
            outcome.arrival_ms = publish_ms;
            outcome.external_delay_ms = rec.external_delay_ms;
            outcome.status = RequestStatus::kShed;
            result.outcomes.push_back(outcome);
            return;
          }
          case resilience::AdmissionDecision::kDowngrade:
            publish(message, 0, publish_ms, config.broker.priority_levels - 1,
                    rec.session_id);
            return;
          case resilience::AdmissionDecision::kAdmit:
            break;
        }
      }
      publish(message, 0, publish_ms, -1, rec.session_id);
    });
  }

  const double horizon_ms = schedule.back().testbed_time_ms + 60000.0;
  if (controllers != nullptr) {
    for (double t = config.common.tick_interval_ms; t <= horizon_ms;
         t += config.common.tick_interval_ms) {
      loop.Schedule(t, [&]() {
        if (controllers->Tick(loop.Now())) {
          const DecisionTable* table = controllers->active().CurrentTable();
          if (table != nullptr) {
            table_scheduler->SetTable(*table);
          }
        }
      });
    }
  }

  // Run to the horizon, then stop consumers so the loop can drain.
  loop.RunUntil(horizon_ms);
  broker.StopConsumers();
  loop.Run();
  if (resil.AnyEnabled()) {
    // Open-ended overload can leave a backlog past the horizon; pull it
    // synchronously so every publish still confirms (the conservation
    // invariant). Alternate with Run(): a drained confirm can grant a
    // backoff retry that re-publishes past the stopped consumers.
    bool drained = true;
    while (drained) {
      drained = false;
      while (broker.TryPull().has_value()) drained = true;
      loop.Run();
    }
  }

  // Broker busy time: one handling cost per delivered message.
  result.service_busy_ms =
      static_cast<double>(broker.delivered_count()) *
      config.broker.handling_cost_ms;
  if (controllers != nullptr) {
    result.controller_stats = controllers->active().stats();
  }
  if (injector != nullptr) {
    result.injected_faults = injector->injected();
  }
  if (resil.AnyEnabled()) {
    if (admission != nullptr) {
      result.resilience.shed = admission->stats().shed;
      result.resilience.downgraded = admission->stats().downgraded;
    }
    if (retry.has_value()) {
      result.resilience.retries = retry->stats().granted;
      result.resilience.retries_exhausted = retry->stats().exhausted;
    }
    if (breaker_scheduler != nullptr) {
      const resilience::BreakerStats breakers = breaker_scheduler->TotalStats();
      result.resilience.breaker_opens = breakers.opens;
      result.resilience.breaker_half_opens = breakers.half_opens;
      result.resilience.breaker_closes = breakers.closes;
      result.resilience.breaker_rejections = breakers.rejections;
    }
  }
  if (telemetry.enabled()) result.telemetry = telemetry.Snapshot();
  result.Finalize();
  return result;
}

}  // namespace e2e
