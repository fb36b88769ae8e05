// Replica groups and the cluster read path.
//
// Mirrors the paper's Cassandra deployment (§6, §7.1) as the experiments
// use it: a read-only table, loaded once and fully replicated to each
// replica group, serving range reads. A client-side read executor picks
// one group per request through a pluggable ReplicaSelector (the paper's
// getReadExecutor hook) and tracks per-replica load and observed delay
// (the paper's RequestHandler callback change).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "db/selector.h"
#include "db/storage.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "qoe/qoe_model.h"
#include "resilience/circuit_breaker.h"
#include "resilience/cloning_model.h"
#include "resilience/config.h"
#include "resilience/retry_policy.h"
#include "sim/event_loop.h"
#include "sim/server.h"
#include "stats/bucketizer.h"
#include "util/rng.h"
#include "util/types.h"

namespace e2e::db {

/// Cluster construction parameters. The defaults approximate the paper's
/// Emulab nodes: ~40 ms base range-query service time, inflating with
/// in-service contention up to `capacity` concurrent jobs (set equal to the
/// service concurrency); offered load beyond saturation accrues queueing
/// delay.
struct ClusterParams {
  int replica_groups = 3;
  int concurrency_per_replica = 8;
  double base_service_ms = 40.0;
  double capacity = 8.0;
  double service_alpha = 1.0;
  double service_beta = 1.6;
  double jitter_sigma = 0.35;
};

/// One replica group: a full copy of the table behind a load-dependent
/// server.
class ReplicaGroup {
 public:
  ReplicaGroup(int index, EventLoop& loop, const ClusterParams& params,
               Rng rng);

  /// The replica's table (set by Cluster::LoadDataset).
  StorageEngine& storage() { return storage_; }
  const StorageEngine& storage() const { return storage_; }

  SimServer& server() { return server_; }
  const SimServer& server() const { return server_; }

  int index() const { return index_; }

  /// Fault injection: a partitioned replica is unreachable; the read
  /// executor fails requests over to a reachable one.
  void SetPartitioned(bool partitioned) { partitioned_ = partitioned; }
  bool partitioned() const { return partitioned_; }

 private:
  int index_;
  StorageEngine storage_;
  SimServer server_;
  bool partitioned_ = false;
};

/// Result of a range read.
struct ReadResult {
  RowSet rows;
  int replica = 0;
  JobTiming timing;
  /// True when the selected replica was partitioned and the request was
  /// served by `replica` as a fallback.
  bool failed_over = false;
};

/// The distributed database: N replica groups, each a full copy.
class Cluster {
 public:
  Cluster(EventLoop& loop, ClusterParams params, Rng rng);

  /// Populates every replica with `num_keys` rows (keys 0, 1, ...) of
  /// `value_bytes` payload. The table is built once and every replica holds
  /// that same table. Throws std::logic_error naming a replica that already
  /// holds rows.
  void LoadDataset(std::size_t num_keys, std::size_t value_bytes);

  /// Executes a range read on the given replica; `done` fires on the event
  /// loop with rows and timing. Throws on an invalid replica index.
  void RangeRead(Key start, std::size_t count, int replica,
                 std::function<void(ReadResult)> done);

  int NumReplicas() const { return static_cast<int>(replicas_.size()); }

  const ClusterParams& params() const { return params_; }

  /// The event loop the cluster runs on (hedge timers, retry backoff).
  EventLoop& loop() { return loop_; }

  /// Fault injection (fault::FaultInjector): extra service delay on one
  /// replica (-1 = all) and partition state. Both throw on a bad index.
  void SetReplicaExtraDelayMs(int replica, double extra_ms);
  void SetReplicaPartitioned(int replica, bool partitioned);
  bool IsPartitioned(int replica) const;

  /// Snapshot of per-replica loads (queued + in service), the signal the
  /// paper's modified client tracks.
  ClusterView View() const;

  ReplicaGroup& replica(int index) { return *replicas_.at(static_cast<std::size_t>(index)); }
  const ReplicaGroup& replica(int index) const {
    return *replicas_.at(static_cast<std::size_t>(index));
  }

  /// Attaches telemetry (docs/OBSERVABILITY.md): per-replica
  /// db.replica<r>.reads counters and db.replica<r>.service_ms histograms
  /// (range-read service time, excluding queueing). `registry` must
  /// outlive the cluster.
  void AttachMetrics(obs::MetricsRegistry& registry);

 private:
  struct ReplicaMetrics {
    obs::Counter* reads = nullptr;
    obs::Histogram* service_ms = nullptr;
  };

  EventLoop& loop_;
  ClusterParams params_;
  std::vector<std::unique_ptr<ReplicaGroup>> replicas_;
  std::vector<ReplicaMetrics> metrics_;  // Empty until AttachMetrics.
};

/// Counters the resilience layer keeps on the read path so experiments can
/// export them and assert conservation: every hedged pair yields exactly
/// one winning outcome and one discarded loser, so hedges_issued ==
/// hedges_cancelled once a run has drained.
struct ReadResilienceStats {
  std::uint64_t retries = 0;           ///< Delayed re-selections granted.
  std::uint64_t retries_exhausted = 0; ///< Denials (served original anyway).
  std::uint64_t hedges_issued = 0;     ///< Clone reads sent.
  std::uint64_t hedges_won = 0;        ///< Clones that beat the primary.
  std::uint64_t hedges_cancelled = 0;  ///< Loser responses discarded.
  /// Cloning-model windows that re-derived the hedge gates (kModelDriven
  /// only; zero in static mode — the serializer skips zeros so static runs
  /// keep their historical byte stream).
  std::uint64_t model_recomputes = 0;
};

/// Per-replica resilience state exported to the placement co-design: the
/// db testbed feeds it through src/obs gauges into the controller's
/// per-window inputs, so the policy solve can shift weight away from
/// replicas the cloning model says hedging cannot rescue
/// (docs/RESILIENCE.md). Derived from virtual-clock state only.
struct ReplicaResilienceSnapshot {
  /// Instantaneous load (queued + in service) over the capacity knee.
  double utilization = 0.0;
  /// Cloning-model gain evaluated at this replica's utilization (0 in
  /// static mode, where no model runs).
  double predicted_gain_ms = 0.0;
  /// False when the breaker is rejecting AND the model predicts cloning
  /// buys nothing at this operating point (or the hedge budget is spent):
  /// reads routed here can neither be served directly nor rescued by a
  /// clone, so placement should shift weight away until the breaker
  /// re-admits.
  bool rescuable = true;
  /// Recent mean total delay above the replica's healthy baseline
  /// (SlownessTracker EWMA); 0 until a baseline exists. The placement
  /// penalty for un-rescuable replicas, in ms.
  double excess_delay_ms = 0.0;
};

/// Client-side read executor: selection + load/delay tracking.
class ReadExecutor {
 public:
  /// `selector` decides the replica per request. Both references must
  /// outlive the executor.
  ReadExecutor(Cluster& cluster, std::shared_ptr<ReplicaSelector> selector);

  /// Routes one request: consults the selector with the request's external
  /// delay and the current cluster view, then issues the range read. When
  /// the chosen replica is partitioned, the request fails over to the
  /// least-loaded reachable replica (ReadResult::failed_over is set); if
  /// every replica is partitioned it is served by the original choice so no
  /// request is ever lost.
  ///
  /// With EnableResilience() active the path additionally honours circuit
  /// breakers (open replicas are excluded from routing), retries the
  /// replica selection with backoff when nothing is routable, and issues a
  /// hedged clone after DbRequest::hedge_delay_ms without a response —
  /// first response wins, the loser is discarded and counted.
  void ExecuteRangeRead(const DbRequest& request,
                        std::function<void(ReadResult)> done);

  /// Attaches telemetry: db.requests and db.failovers counters.
  void AttachMetrics(obs::MetricsRegistry& registry);

  /// Activates the resilience layer (docs/RESILIENCE.md): one circuit
  /// breaker per replica (fed by response times; slow responses count as
  /// failures), retry-with-backoff when no replica is routable, and hedged
  /// reads. `rng` seeds the retry jitter stream; `classify` maps a request
  /// to the sensitivity class charged for its retry budget (defaults to
  /// kSensitive for every request). Call before the run starts.
  void EnableResilience(
      const resilience::ResilienceConfig& config, Rng rng,
      std::function<SensitivityClass(const DbRequest&)> classify = {});

  /// Resilience telemetry: db.resilience.* counters and — when `tracer` is
  /// non-null — one resilience.db.replica<r>.open span per breaker-open
  /// episode. Call after EnableResilience; both must outlive the executor.
  void AttachResilienceMetrics(obs::MetricsRegistry& registry,
                               obs::Tracer* tracer);

  const ReadResilienceStats& resilience_stats() const { return resil_stats_; }

  /// Rolls the cloning-model window forward to `now_ms` and re-derives the
  /// hedge gates at each boundary (kModelDriven only; no-op otherwise).
  /// The read path drives this on every arrival; the db testbed also calls
  /// it at controller ticks so gates stay fresh across arrival lulls.
  void MaybeRecomputeBudgets(double now_ms);

  /// The cluster-level prediction from the last completed model window
  /// (zeros until the first recompute, and always in static mode).
  const resilience::CloningPrediction& last_prediction() const {
    return last_prediction_;
  }

  /// Per-replica snapshot for the placement co-design (docs/RESILIENCE.md),
  /// indexed by replica. Empty when resilience is disabled.
  std::vector<ReplicaResilienceSnapshot> SnapshotResilience(
      double now_ms) const;

  /// Aggregated breaker counters across replicas (zeros when disabled).
  resilience::BreakerStats TotalBreakerStats() const;

 private:
  /// Shared completion state of one (possibly hedged) logical read.
  struct ReadState {
    bool completed = false;
    EventId hedge_timer = 0;
    std::function<void(ReadResult)> done;
  };

  void IssueWithRetries(const DbRequest& request,
                        std::function<void(ReadResult)> done, int failures,
                        double first_start_ms);
  void IssueRead(const DbRequest& request, int replica, int selected,
                 bool is_hedge, std::shared_ptr<ReadState> state);
  /// Arms the hedge timer: after `delay_ms` without a response, clone the
  /// read to the best available replica (budget and idle-capacity gated).
  /// `delay_ms` is usually DbRequest::hedge_delay_ms; 0 for a breaker-open
  /// rescue.
  void ScheduleHedge(const DbRequest& request, int primary, int selected,
                     std::shared_ptr<ReadState> state, double delay_ms);
  /// Mutating admission check on one replica (breaker may count a
  /// rejection or admit a half-open probe).
  bool RouteAllowed(int replica, double now_ms);
  /// Least-loaded replica that is reachable and whose breaker would admit,
  /// excluding `exclude` (-1 = none); -1 when no candidate exists.
  int BestAvailable(const ClusterView& view, double now_ms, int exclude) const;
  void RecordBreakerOutcome(int replica, const JobTiming& timing);
  /// Sum of every replica server's busy-milliseconds integral at `now_ms`
  /// (SimServer::BusyServerMs).
  double ClusterBusyServerMs(double now_ms) const;

  Cluster& cluster_;
  std::shared_ptr<ReplicaSelector> selector_;
  obs::Counter* metric_requests_ = nullptr;
  obs::Counter* metric_failovers_ = nullptr;
  // Resilience layer (inactive until EnableResilience).
  bool resilience_enabled_ = false;
  resilience::ResilienceConfig resil_config_;
  std::optional<resilience::RetryPolicy> retry_;
  std::vector<resilience::CircuitBreaker> breakers_;  // One per replica.
  // Adaptive slow-read thresholds, one per replica (docs/RESILIENCE.md):
  // the sacrificial replica's deliberate slowness must not trip its breaker.
  std::vector<resilience::SlownessTracker> slowness_;
  std::function<SensitivityClass(const DbRequest&)> classify_;
  std::uint64_t primary_reads_ = 0;  // Denominator of the hedge budget.
  ReadResilienceStats resil_stats_;
  // Hedge gates in force: the HedgeConfig constants in kStatic mode; in
  // kModelDriven mode re-derived each model window, never below those
  // constants (resilience/cloning_model.h). ScheduleHedge reads only these,
  // so the static mode runs the byte-identical comparisons it always has.
  double effective_hedge_fraction_ = 0.0;
  double effective_target_load_ = 0.0;
  // Model-driven hedging (HedgeMode::kModelDriven; docs/RESILIENCE.md).
  bool model_driven_ = false;
  std::optional<resilience::CloningModel> cloning_model_;
  std::optional<Bucketizer> service_window_;  // Current window's samples.
  // Busy-period utilization window: virtual time and cluster busy-ms
  // integral at the last successful recompute (or at EnableResilience).
  // The window's utilization is Δbusy / (Δtime × capacity × replicas) — an
  // exact time average, where the arrival-sampled mean it replaces was
  // biased high precisely when arrivals clustered on busy periods
  // (docs/RESILIENCE.md §2).
  double util_window_start_ms_ = 0.0;
  double busy_at_window_start_ms_ = 0.0;
  double next_model_recompute_ms_ = 0.0;
  resilience::CloningPrediction last_prediction_;
  obs::Counter* metric_retries_ = nullptr;
  obs::Counter* metric_retries_exhausted_ = nullptr;
  obs::Counter* metric_hedges_ = nullptr;
  obs::Counter* metric_hedge_wins_ = nullptr;
  obs::Counter* metric_hedge_cancels_ = nullptr;
  obs::Counter* metric_breaker_transitions_ = nullptr;
  // Model-driven gate telemetry (registered only in kModelDriven mode so
  // static runs' exports stay byte-identical).
  obs::Counter* metric_model_recomputes_ = nullptr;
  obs::Gauge* metric_model_fraction_ = nullptr;
  obs::Gauge* metric_model_target_load_ = nullptr;
  obs::Gauge* metric_model_gain_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::vector<obs::Span> breaker_spans_;  // One per replica while open.
};

}  // namespace e2e::db
