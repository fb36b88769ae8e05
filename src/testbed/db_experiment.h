// Cassandra-testbed experiment (§7.1): replay a trace slice against the
// replicated database at a speed-up ratio, with replica selection driven by
// one of the policies, and measure per-request QoE from the *actual*
// testbed processing delays.
#pragma once

#include <memory>
#include <span>

#include "core/failover.h"
#include "db/cluster.h"
#include "qoe/qoe_model.h"
#include "testbed/experiment_config.h"
#include "testbed/frontend.h"
#include "testbed/metrics.h"
#include "trace/replay.h"

namespace e2e {

/// Where the controller's per-request external delays come from.
enum class ExternalSource {
  kOracle,                 ///< Trace ground truth (the paper's prototype).
  kMechanisticEstimator,   ///< Frontend estimators (Sec 9 deployment mode).
};

/// Which replica-selection policy the experiment runs.
enum class DbPolicy {
  kDefault,  ///< Perfect load balancing (the paper's default).
  kSlope,    ///< Slope-based table (§7.1 baseline).
  kE2e,      ///< E2E's full policy.
};

/// Experiment configuration. Shared knobs (seed, speedup, controller,
/// fault plan, ...) live in `common`; supported fault clauses here are
/// controller crashes, replica delays/partitions, and estimator skew —
/// crash windows carry their own election delay ("crash ctrl t=60s
/// for=30s").
struct DbExperimentConfig {
  ExperimentConfig common = ExperimentConfig::WithSeed(11, 20.0);
  db::ClusterParams cluster;
  std::size_t dataset_keys = 20000;
  std::size_t value_bytes = 64;
  std::size_t range_count = 100;   ///< Rows per range query (paper: 100).
  DbPolicy policy = DbPolicy::kE2e;

  /// Offline-profiling grid for the server-delay model (E2E/slope only).
  double profile_max_rps = 120.0;
  int profile_levels = 16;
  double profile_duration_ms = 30000.0;

  /// Error injection (Fig. 20); relative fractions.
  double external_delay_error = 0.0;
  double rps_error = 0.0;

  /// Epsilon spread of the probabilistic table rows (see db::TableSelector).
  double table_epsilon = 0.10;

  /// External-delay source for the controller (QoE is always scored with
  /// the ground truth).
  ExternalSource external_source = ExternalSource::kOracle;
  FrontendParams frontend;
};

/// Runs the experiment over `records` (one page type, arrival-ordered)
/// scored against `qoe`. Deterministic in the seed. Of the resilience
/// layer the read path runs retries, hedged reads and breakers. Throws
/// std::invalid_argument on empty `records`, `dataset_keys` == 0,
/// `range_count` == 0, `resilience.admission.enabled`, which only the
/// broker runs, or `abandonment.enabled`, which only ReplayTraceSharded
/// models.
ExperimentResult RunDbExperiment(std::span<const TraceRecord> records,
                                 const QoeModel& qoe,
                                 const DbExperimentConfig& config);

/// Builds the profiled server-delay model matching `config`'s cluster.
std::shared_ptr<const ServerDelayModel> BuildDbServerModel(
    const DbExperimentConfig& config);

}  // namespace e2e
