#include "testbed/db_experiment.h"

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "fault/injector.h"
#include "obs/export.h"
#include "sim/event_loop.h"

namespace e2e {

std::shared_ptr<const ServerDelayModel> BuildDbServerModel(
    const DbExperimentConfig& config) {
  ProfilerConfig profiler;
  profiler.base_service_ms = config.cluster.base_service_ms;
  profiler.capacity = config.cluster.capacity;
  profiler.service_alpha = config.cluster.service_alpha;
  profiler.service_beta = config.cluster.service_beta;
  profiler.jitter_sigma = config.cluster.jitter_sigma;
  profiler.concurrency = config.cluster.concurrency_per_replica;
  profiler.max_rps = config.profile_max_rps;
  profiler.levels = config.profile_levels;
  profiler.duration_ms = config.profile_duration_ms;
  profiler.seed = config.common.seed ^ 0x90f1ULL;
  LoadProfile profile = ProfileServerOffline(profiler);
  return std::make_shared<ProfiledReplicaModel>(config.cluster.replica_groups,
                                                std::move(profile));
}

ExperimentResult RunDbExperiment(std::span<const TraceRecord> records,
                                 const QoeModel& qoe,
                                 const DbExperimentConfig& config) {
  if (records.empty()) {
    throw std::invalid_argument("RunDbExperiment: no records");
  }
  // Each request reads from a uniformly drawn key of the table, so an empty
  // table or a zero-row read would "serve" requests that read nothing.
  if (config.dataset_keys == 0) {
    throw std::invalid_argument("RunDbExperiment: dataset_keys must be > 0");
  }
  if (config.range_count == 0) {
    throw std::invalid_argument("RunDbExperiment: range_count must be > 0");
  }
  // Admission control sheds and downgrades broker publishes; the read path
  // has no queue for it to act on.
  if (config.common.resilience.admission.enabled) {
    throw std::invalid_argument(
        "RunDbExperiment: resilience.admission is not supported here; "
        "RunBrokerExperiment runs it");
  }
  RequireNoAbandonment(config.common, "RunDbExperiment");
  Rng root(config.common.seed);
  EventLoop loop;
  // Budget accounting runs on the sim's virtual clock unless the config
  // explicitly asks for real-overhead measurement (Fig. 16/17).
  const EventLoopClock loop_clock(loop);
  const Clock* profile_clock = ProfileClock(config.common, &loop_clock);
  // Telemetry always runs on the virtual clock so exports stay
  // byte-identical even when stats profiling opts into the real clock.
  obs::Telemetry telemetry(config.common.collect_telemetry, &loop_clock);
  if (telemetry.enabled()) loop.AttachMetrics(telemetry.metrics);
  db::Cluster cluster(loop, config.cluster, root.Fork(1));
  cluster.LoadDataset(config.dataset_keys, config.value_bytes);
  if (telemetry.enabled()) cluster.AttachMetrics(telemetry.metrics);

  // Sec 9 deployment mode: estimate external delays mechanistically at the
  // frontend instead of reading the oracle values.
  std::unique_ptr<Frontend> frontend;
  if (config.external_source == ExternalSource::kMechanisticEstimator) {
    frontend = std::make_unique<Frontend>(config.frontend);
    frontend->TrainRenderModel(records);
  }

  // --- Policy wiring -----------------------------------------------------
  std::shared_ptr<db::ReplicaSelector> selector;
  std::shared_ptr<db::TableSelector> table_selector;
  std::unique_ptr<ReplicatedControllerGroup> controllers;

  const bool uses_controller =
      config.policy == DbPolicy::kSlope || config.policy == DbPolicy::kE2e;
  if (uses_controller) {
    auto qoe_shared = std::shared_ptr<const QoeModel>(&qoe, [](auto*) {});
    auto server_model = BuildDbServerModel(config);
    ControllerConfig cc = config.common.controller;
    if (config.policy == DbPolicy::kSlope) {
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
        make("primary", 0x51ULL), make("backup", 0x52ULL));
    table_selector = std::make_shared<db::TableSelector>(
        config.policy == DbPolicy::kSlope ? "slope-table" : "e2e-table",
        root.Fork(2), config.table_epsilon);
    selector = table_selector;
  } else {
    selector = std::make_shared<db::LoadBalancedSelector>();
  }
  db::ReadExecutor executor(cluster, selector);
  if (telemetry.enabled()) executor.AttachMetrics(telemetry.metrics);

  // --- Resilience layer --------------------------------------------------
  const resilience::ResilienceConfig& resil = config.common.resilience;
  if (resil.AnyEnabled()) {
    executor.EnableResilience(resil, root.Fork(4),
                              [&qoe](const db::DbRequest& request) {
                                return qoe.Classify(request.external_delay_ms);
                              });
    if (telemetry.enabled()) {
      executor.AttachResilienceMetrics(telemetry.metrics, &telemetry.tracer);
    }
  }
  const bool model_driven =
      resil.hedge.enabled && resil.hedge.mode == resilience::HedgeMode::kModelDriven;

  // Per-replica resilience snapshot gauges (docs/RESILIENCE.md): the
  // placement co-design's controller inputs, exported through src/obs so
  // the policy shift away from un-rescuable replicas is observable.
  // Registered only in model-driven mode — stock telemetry stays
  // byte-identical.
  struct ReplicaResilienceGauges {
    obs::Gauge* utilization = nullptr;
    obs::Gauge* predicted_gain = nullptr;
    obs::Gauge* rescuable = nullptr;
    obs::Gauge* penalty = nullptr;
  };
  std::vector<ReplicaResilienceGauges> replica_gauges;
  if (model_driven && telemetry.enabled()) {
    replica_gauges.resize(static_cast<std::size_t>(cluster.NumReplicas()));
    for (int r = 0; r < cluster.NumReplicas(); ++r) {
      const std::string prefix =
          "db.resilience.replica" + std::to_string(r) + ".";
      auto& g = replica_gauges[static_cast<std::size_t>(r)];
      g.utilization = &telemetry.metrics.AddGauge(prefix + "utilization");
      g.predicted_gain =
          &telemetry.metrics.AddGauge(prefix + "predicted_gain_ms");
      g.rescuable = &telemetry.metrics.AddGauge(prefix + "rescuable");
      g.penalty = &telemetry.metrics.AddGauge(prefix + "penalty_ms");
    }
  }

  // --- Fault plan --------------------------------------------------------
  std::unique_ptr<fault::FaultInjector> injector;
  if (!config.common.fault_plan.empty()) {
    fault::FaultTargets targets;
    targets.controllers = controllers.get();
    targets.cluster = &cluster;
    targets.base_external_error = config.external_delay_error;
    if (controllers != nullptr || frontend != nullptr) {
      auto* group = controllers.get();
      auto* front = frontend.get();
      targets.apply_external_error = [group, front,
                                      base = config.external_delay_error](
                                         double error) {
        if (group != nullptr) group->SetExternalDelayError(error);
        // In estimator mode the skew also biases the frontend's tags — the
        // deployment-facing estimate path drifts with the injected error.
        if (front != nullptr) front->SetEstimateBias(error - base);
      };
    }
    injector = std::make_unique<fault::FaultInjector>(
        loop, config.common.fault_plan, std::move(targets));
    if (telemetry.enabled()) {
      injector->AttachTelemetry(telemetry.metrics, &telemetry.tracer);
    }
    injector->Arm();
  }

  // --- Replay ------------------------------------------------------------
  const auto schedule = BuildReplaySchedule(records, config.common.speedup);
  ExperimentResult result;
  result.outcomes.reserve(schedule.size());
  result.arrivals = schedule.size();
  Rng keys = root.Fork(3);

  for (const auto& arrival : schedule) {
    loop.Schedule(arrival.testbed_time_ms, [&, arrival]() {
      const TraceRecord& rec = arrival.record;
      const DelayMs tagged_external =
          frontend != nullptr ? frontend->EstimateExternal(rec)
                              : rec.external_delay_ms;
      if (controllers != nullptr) {
        controllers->ObserveArrival(tagged_external, loop.Now());
      }
      db::DbRequest request;
      request.id = rec.request_id;
      request.external_delay_ms = tagged_external;
      request.range_start = static_cast<db::Key>(keys.UniformInt(
          0, static_cast<std::int64_t>(config.dataset_keys) - 1));
      request.range_count = config.range_count;
      if (resil.hedge.enabled) {
        // Per-class hedge delay: sensitive requests hedge aggressively
        // (their QoE gains most from shaving the tail), the flat classes
        // conservatively.
        request.hedge_delay_ms =
            qoe.Classify(tagged_external) == SensitivityClass::kSensitive
                ? resil.hedge.sensitive_delay_ms
                : resil.hedge.insensitive_delay_ms;
      }
      executor.ExecuteRangeRead(
          request, [&result, rec, &qoe](db::ReadResult read) {
            RequestOutcome outcome;
            outcome.id = rec.request_id;
            outcome.arrival_ms = read.timing.enqueue_ms;
            outcome.external_delay_ms = rec.external_delay_ms;
            outcome.server_delay_ms = read.timing.TotalDelayMs();
            outcome.decision = read.replica;
            outcome.qoe =
                qoe.Qoe(rec.external_delay_ms + outcome.server_delay_ms);
            outcome.status = read.failed_over ? RequestStatus::kFailedOver
                                              : RequestStatus::kCompleted;
            result.outcomes.push_back(outcome);
          });
    });
  }

  // Controller maintenance ticks across the whole replay horizon.
  const double horizon_ms =
      schedule.back().testbed_time_ms + 30000.0;  // Drain margin.
  if (controllers != nullptr) {
    for (double t = config.common.tick_interval_ms; t <= horizon_ms;
         t += config.common.tick_interval_ms) {
      loop.Schedule(t, [&]() {
        if (model_driven) {
          // Roll the cloning-model window even across arrival lulls, then
          // feed the per-replica snapshot into the next policy solve: a
          // replica the model says cloning cannot rescue is penalized by
          // its measured excess delay, so weight drifts off it.
          executor.MaybeRecomputeBudgets(loop.Now());
          const auto snapshot = executor.SnapshotResilience(loop.Now());
          std::vector<double> penalties(snapshot.size(), 0.0);
          bool any_penalty = false;
          for (std::size_t i = 0; i < snapshot.size(); ++i) {
            const db::ReplicaResilienceSnapshot& snap = snapshot[i];
            if (!snap.rescuable && snap.excess_delay_ms > 0.0) {
              penalties[i] = snap.excess_delay_ms;
              any_penalty = true;
            }
            if (!replica_gauges.empty()) {
              const auto& g = replica_gauges[i];
              g.utilization->Set(snap.utilization);
              g.predicted_gain->Set(snap.predicted_gain_ms);
              g.rescuable->Set(snap.rescuable ? 1.0 : 0.0);
              g.penalty->Set(penalties[i]);
            }
          }
          controllers->SetDecisionPenalties(
              any_penalty ? std::move(penalties) : std::vector<double>{});
        }
        if (controllers->Tick(loop.Now())) {
          const DecisionTable* table =
              controllers->active().CurrentTable();
          if (table != nullptr) {
            table_selector->SetTable(*table);
          }
        }
      });
    }
  }

  loop.Run();

  // Service busy time: sum of service delays across replicas.
  for (int r = 0; r < cluster.NumReplicas(); ++r) {
    result.service_busy_ms +=
        cluster.replica(r).server().service_delay_stats().sum();
  }
  if (controllers != nullptr) {
    result.controller_stats = controllers->active().stats();
  }
  if (injector != nullptr) {
    result.injected_faults = injector->injected();
  }
  if (resil.AnyEnabled()) {
    const db::ReadResilienceStats& reads = executor.resilience_stats();
    result.resilience.retries = reads.retries;
    result.resilience.retries_exhausted = reads.retries_exhausted;
    result.resilience.hedges_issued = reads.hedges_issued;
    result.resilience.hedges_won = reads.hedges_won;
    result.resilience.hedges_cancelled = reads.hedges_cancelled;
    result.resilience.model_recomputes = reads.model_recomputes;
    const resilience::BreakerStats breakers = executor.TotalBreakerStats();
    result.resilience.breaker_opens = breakers.opens;
    result.resilience.breaker_half_opens = breakers.half_opens;
    result.resilience.breaker_closes = breakers.closes;
    result.resilience.breaker_rejections = breakers.rejections;
  }
  if (telemetry.enabled()) result.telemetry = telemetry.Snapshot();
  result.Finalize();
  return result;
}

}  // namespace e2e
