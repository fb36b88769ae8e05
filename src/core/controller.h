// The E2E controller (§3.1, Fig. 9): consumes the three input models (QoE,
// external delay, server-side delay), periodically recomputes the decision
// lookup table via the two-level policy, and serves per-request decisions
// from the cached table at O(log k) cost.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/external_delay_model.h"
#include "core/policy.h"
#include "core/server_delay_model.h"
#include "core/table_cache.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "qoe/qoe_model.h"
#include "util/clock.h"
#include "util/rng.h"

namespace e2e {

/// Controller configuration.
struct ControllerConfig {
  PolicyConfig policy;
  ExternalDelayModelParams external;
  TableCacheParams cache;

  /// Headroom applied to the measured offered load when planning: the
  /// policy is computed as if the next window carried `rps_planning_factor`
  /// times the last window's rate, so minute-scale bursts between table
  /// refreshes do not push a deliberately-loaded decision into sustained
  /// overload. Must be finite and > 0: the Controller constructor and
  /// testbed::ReplayTraceSharded throw std::invalid_argument otherwise.
  double rps_planning_factor = 1.0;

  /// Shard count for the full-trace replayer (docs/SCALE.md):
  /// testbed::ReplayTraceSharded solves its (page type × analysis window)
  /// groups on a pool of min(shards, ThreadPool::DefaultWorkers()) workers
  /// and flushes closed groups in batches of max(4, 2 · shards), merging
  /// them in (window, page) order — byte-identical output at any shard
  /// count. Groups are not partitioned by it. 0 = one worker per core (the
  /// replay's header has the convention). The pool's workers are the only
  /// threads a policy solve ever runs on; each solve itself is serial. The
  /// live Controller serves one stream and ignores this.
  int shards = 1;
};

/// Controller bookkeeping, including decision costs used for the overhead
/// evaluation (Fig. 16, Fig. 17). Costs are measured against the clock the
/// controller was constructed with: the frozen virtual clock by default
/// (deterministic, reads as zero), the real clock only when an experiment
/// explicitly opts in via `profile_real_clock`.
struct ControllerStats {
  std::uint64_t observations = 0;
  std::uint64_t decisions = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t ticks = 0;
  double total_recompute_wall_us = 0.0;
  double total_lookup_wall_us = 0.0;
  PolicyStats last_policy_stats;

  double MeanRecomputeWallUs() const {
    return recomputes == 0 ? 0.0
                           : total_recompute_wall_us /
                                 static_cast<double>(recomputes);
  }
  double MeanLookupWallUs() const {
    return decisions == 0
               ? 0.0
               : total_lookup_wall_us / static_cast<double>(decisions);
  }
};

/// One controller instance serving one shared-resource service.
class Controller {
 public:
  /// `clock` drives the recompute/lookup budget accounting in `stats()`.
  /// It defaults to VirtualClock::Frozen() so experiment runs stay
  /// byte-reproducible; pass &RealClock::Instance() (or an EventLoopClock)
  /// to measure something else. The clock must outlive the controller.
  Controller(std::string name, ControllerConfig config, QoeModelPtr qoe,
             std::shared_ptr<const ServerDelayModel> server_model,
             std::uint64_t seed, const Clock* clock = nullptr);

  /// Feeds the measured external delay of an arriving request.
  void ObserveArrival(DelayMs external_delay_ms, double now_ms);

  /// Periodic maintenance: rolls the external-delay window and, when the
  /// cached table is stale, recomputes it. Returns true when a new table
  /// was installed. No-op while failed.
  bool Tick(double now_ms);

  /// The current decision table (nullptr before the first computation).
  const DecisionTable* CurrentTable() const { return cache_.Get(); }

  /// Per-request decision: estimates the external delay (with injected
  /// error, Fig. 20a) and looks it up in the cached table. Returns -1 when
  /// no table exists yet (callers fall back to the default policy, §5).
  int Decide(DelayMs true_external_delay_ms);

  /// Fault injection (Fig. 18): a failed controller stops updating its
  /// table; Decide() keeps serving the stale cache.
  void Fail() { failed_ = true; }
  void Recover() { failed_ = false; }
  bool failed() const { return failed_; }

  /// Error injection for the robustness study (Fig. 20).
  void SetExternalDelayError(double rel) {
    external_model_.SetExternalDelayError(rel);
  }
  void SetRpsError(double rel) { external_model_.SetRpsError(rel); }

  /// Placement co-design input (docs/RESILIENCE.md): per-decision delay
  /// penalties in ms, applied to the server model inside the next policy
  /// solves via PenalizedServerModel. Empty clears (the default — solves
  /// then run the base model untouched, byte-identical to before this hook
  /// existed). Throws when non-empty and sized != NumDecisions().
  void SetDecisionPenalties(std::vector<double> penalties_ms);
  const std::vector<double>& decision_penalties_ms() const {
    return penalties_ms_;
  }

  /// Live abandonment input (docs/OBJECTIVES.md): fraction of observed
  /// arrivals whose sessions have quit. The planner discounts its offered-
  /// load estimate by it — a gone user stops loading the system, and
  /// planning for their traffic overshoots capacity the survivors could
  /// use. 0 (the default) leaves the estimate untouched. Throws outside
  /// [0, 1), NaN included.
  void SetLoadDiscount(double fraction);
  double load_discount() const { return load_discount_; }

  const ControllerStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  const ExternalDelayModel& external_model() const { return external_model_; }
  const ServerDelayModel& server_model() const { return *server_model_; }
  const QoeModel& qoe_model() const { return *qoe_; }

  /// Copies the current table/cache state from another controller (backup
  /// replication: replicas share input state, §5).
  void AdoptStateFrom(const Controller& other);

  /// Attaches telemetry (docs/OBSERVABILITY.md) under `prefix` (e.g.
  /// "ctrl.primary"): ticks/recomputes/decisions counters, a
  /// <prefix>.policy.transport_solves counter (the optimizer work each
  /// rebuild performed), a
  /// <prefix>.recompute_us histogram (profile-clock cost of ComputePolicy,
  /// same reading as stats()), a <prefix>.table_staleness_ms histogram
  /// (age of the installed table observed at each tick), and — when
  /// `tracer` is non-null — one <prefix>.recompute span per table rebuild.
  /// `registry` (and `tracer`) must outlive the controller.
  void AttachTelemetry(obs::MetricsRegistry& registry, obs::Tracer* tracer,
                       const std::string& prefix);

 private:
  std::string name_;
  ControllerConfig config_;
  QoeModelPtr qoe_;
  std::shared_ptr<const ServerDelayModel> server_model_;
  ExternalDelayModel external_model_;
  DecisionTableCache cache_;
  const Clock* clock_;
  Rng rng_;
  bool failed_ = false;
  std::vector<double> penalties_ms_;  // Empty = no placement penalty.
  double load_discount_ = 0.0;        // 0 = plan for every observed arrival.
  ControllerStats stats_;
  double last_install_ms_ = 0.0;  // Virtual time the current table landed.
  // Telemetry (null until AttachTelemetry).
  obs::Tracer* tracer_ = nullptr;
  std::string span_name_;  // "<prefix>.recompute".
  obs::Counter* metric_ticks_ = nullptr;
  obs::Counter* metric_recomputes_ = nullptr;
  obs::Counter* metric_decisions_ = nullptr;
  obs::Counter* metric_transport_solves_ = nullptr;
  obs::Histogram* metric_recompute_us_ = nullptr;
  obs::Histogram* metric_staleness_ = nullptr;
};

}  // namespace e2e
