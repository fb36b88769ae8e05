// Complex request structures (§9, "Complex request structures") — the
// paper's primary future-work direction, prototyped here.
//
// A high-level web request fans out to TWO backend services and completes
// only when both respond (partition-aggregate). Applying E2E to each
// service in isolation is suboptimal: a service may prioritize a request
// whose completion is actually gated by the *other* service. The
// dependency-aware variant inflates each request's external delay, as seen
// by service A, with the expected residual delay of service B (and vice
// versa), so each service deprioritizes requests it cannot actually speed
// up — exactly the Fig. 11 reasoning lifted across services.
#pragma once

#include <span>

#include "broker/broker.h"
#include "qoe/qoe_model.h"
#include "testbed/experiment_config.h"
#include "testbed/metrics.h"
#include "trace/record.h"

namespace e2e {

/// How the two services' controllers see each other.
enum class CrossServiceMode {
  kIsolated,         ///< Each service optimizes alone (the paper's §9 strawman).
  kDependencyAware,  ///< Each service adds the sibling's expected delay to
                     ///< the request's external delay.
};

/// Two-service experiment configuration. Both services are brokers (the
/// decision surface is priorities). Every request needs service A; a
/// `fanout_probability` fraction additionally needs the slower service B
/// and completes only when both legs respond — the paper's §9 example of a
/// request "that also depends on another, much slower service".
/// Shared knobs live in `common`; this runner has no fault-injection
/// hooks, so `common.fault_plan` must stay empty (the runner throws
/// otherwise).
struct MultiServiceConfig {
  ExperimentConfig common = ExperimentConfig::WithSeed(211);
  broker::BrokerParams service_a;
  broker::BrokerParams service_b;
  CrossServiceMode mode = CrossServiceMode::kIsolated;
  bool use_e2e = true;  ///< false = FIFO on both services.
  /// When true (default), service B is a legacy FIFO service E2E does not
  /// control — the paper's motivating case: B's delay is outside A's and
  /// E2E's reach, so A must plan around it rather than through it.
  bool service_b_legacy_fifo = true;
  double fanout_probability = 0.5;  ///< Fraction of requests also needing B.
};

/// Runs the experiment. A request's server-side delay is the MAX of its
/// legs' queueing delays (aggregation waits for the slower leg). A fault
/// plan, an enabled resilience mechanism or abandonment throws
/// std::invalid_argument: this runner models none of them.
ExperimentResult RunMultiServiceExperiment(
    std::span<const TraceRecord> records, const QoeModel& qoe,
    const MultiServiceConfig& config);

}  // namespace e2e
