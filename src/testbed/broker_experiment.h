// RabbitMQ-testbed experiment (§7.1): replay a trace slice as published
// messages; the scheduling policy assigns priorities; a fixed-rate consumer
// drains the queues; QoE is scored from the measured queueing delay.
#pragma once

#include <memory>
#include <span>

#include "broker/broker.h"
#include "core/failover.h"
#include "qoe/qoe_model.h"
#include "testbed/experiment_config.h"
#include "testbed/metrics.h"
#include "trace/replay.h"

namespace e2e {

/// Which message-scheduling policy the experiment runs.
enum class BrokerPolicy {
  kDefault,   ///< FIFO (the paper's default).
  kSlope,     ///< Slope-based priorities.
  kE2e,       ///< E2E's full policy.
  kDeadline,  ///< Timecard-style deadline scheduler (Fig. 21).
};

/// Experiment configuration. Shared knobs (seed, speedup, controller,
/// fault plan, ...) live in `common`; supported fault clauses here are
/// controller crashes, broker drops/delays, and estimator skew — crash
/// windows carry their own election delay ("crash ctrl t=60s for=30s").
struct BrokerExperimentConfig {
  ExperimentConfig common = ExperimentConfig::WithSeed(13, 20.0);
  broker::BrokerParams broker;
  BrokerPolicy policy = BrokerPolicy::kE2e;

  /// Deadline policy parameters (Fig. 21).
  DelayMs deadline_ms = 3400.0;
  DelayMs deadline_max_slack_ms = 4000.0;

  /// Error injection (Fig. 20).
  double external_delay_error = 0.0;
  double rps_error = 0.0;
};

/// Runs the experiment over `records` scored against `qoe`. Of the
/// resilience layer the broker runs retries, per-queue breakers and
/// admission; a publish has no hedge path, so `resilience.hedge.enabled`
/// throws std::invalid_argument in either mode, as do empty `records`.
ExperimentResult RunBrokerExperiment(std::span<const TraceRecord> records,
                                     const QoeModel& qoe,
                                     const BrokerExperimentConfig& config);

/// Builds the queueing-theoretic server-delay model matching the broker.
std::shared_ptr<const ServerDelayModel> BuildBrokerServerModel(
    const broker::BrokerParams& params);

}  // namespace e2e
