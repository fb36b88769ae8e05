// Sharded full-trace controller replay (docs/SCALE.md).
//
// Replays a whole recorded day through the E2E policy at full volume by
// streaming the arrival-sorted trace once and solving each (page type ×
// analysis window) group independently: the group's external delays
// accumulate into a streaming Bucketizer as records arrive, and when the
// window closes the group's decision table is computed and applied to its
// records. Groups are partitioned across `ControllerConfig::shards` shards
// — each shard owns its open windows, bucketizers, and solved tables — and
// solved groups are re-merged in ascending (window, page type) order, so
// the output byte stream is identical at any shard count (the scale test
// tier proves shards ∈ {1, 2, 4, 7} byte-equal).
//
// Peak memory is O(window × shards), not O(day): only the currently open
// windows hold records, and with `keep_outcomes == false` per-request
// outcomes are folded into running aggregates at each merge instead of
// being retained (bench/bench_scale.cc replays the paper's full 1.6M-load
// day this way).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/server_delay_model.h"
#include "resilience/cloning_model.h"
#include "stats/summary.h"
#include "testbed/counterfactual.h"
#include "testbed/experiment_config.h"
#include "testbed/metrics.h"
#include "trace/record.h"

namespace e2e {

/// Configuration for one sharded replay. The shard count, analysis window
/// (`controller.external.window_ms`), and policy knobs come from
/// `common.controller`; `common.seed` only labels the run (the replay is
/// seed-free — every step is a pure function of the trace and config).
struct ShardedReplayConfig {
  ExperimentConfig common;

  /// Retain per-request outcomes in the result (required for
  /// ExperimentResult::Serialize() byte-identity checks). When false the
  /// outcomes are folded into the aggregate fields at each merge and
  /// dropped, bounding peak RSS for full-volume runs.
  bool keep_outcomes = true;
};

/// Replay bookkeeping, all deterministic and shard-count-invariant.
struct ShardedReplayStats {
  std::uint64_t windows_streamed = 0;  ///< Window-close events observed.
  std::uint64_t groups_merged = 0;     ///< (page, window) groups solved.
  std::uint64_t records = 0;           ///< Trace records replayed.
  int shards = 0;                      ///< Resolved shard count used.
};

/// Result of one sharded replay.
struct ShardedReplayResult {
  ExperimentResult result;
  ShardedReplayStats stats;

  /// Streaming moments of served-request QoE, maintained on the serial
  /// merge path in (window, page) order — shard-count-invariant, and
  /// available even with `keep_outcomes == false` (full-volume runs), so
  /// tail/variance objectives can be evaluated without retaining per-
  /// request outcomes.
  StreamingSummary qoe_summary;

  /// 100-bin histogram of served-request QoE normalized per page by the
  /// page model's MaxQoe() (bin = floor(100·q/MaxQoe), clamped to
  /// [0, 99]). This is the replay-level QoE CDF the objective figures
  /// plot; like qoe_summary it survives aggregate-only runs.
  std::vector<std::uint64_t> qoe_histogram = std::vector<std::uint64_t>(100);

  /// Last hedge-gate prediction the model-driven metering derived on the
  /// serial merge path (all zeros unless `resilience.hedge` is enabled in
  /// HedgeMode::kModelDriven and at least one model window had enough
  /// samples; `result.resilience.model_recomputes` counts the rederives).
  /// The replay charges planned mean delays and has no hedge path, so the
  /// gates are metered — exported, never applied to a decision.
  resilience::CloningPrediction model_prediction;
};

/// Replays `records` (sorted by arrival_ms; throws otherwise) through the
/// two-level policy against server-delay model `g`, with per-page QoE
/// models from `qoe_of_page`. Each group's offered load is estimated as its
/// own arrival rate times `rps_planning_factor`; each record takes the
/// decision its external delay maps to in the group's table and is charged
/// the mean of that decision's delay distribution under the planned split.
/// The shard count is `config.common.controller.shards`
/// (ControllerConfig::shards): 0 picks ThreadPool::DefaultWorkers(), 1 is
/// serial, N > 1 uses N shards (negative throws). Fault plans are not
/// supported (RequireNoFaultPlan).
///
/// When `common.abandonment.enabled`, a session whose total delay
/// (external + planned mean server delay) exceeds its seeded patience quits:
/// the triggering request and the session's later requests in the same
/// group are marked kAbandoned, and from the *next* analysis window on the
/// session's requests are excluded from group load (bucketizer and planned
/// rps) entirely. Quits propagate through the global session set only on
/// the serial merge path, and every window is flushed before the next one
/// routes, so results stay byte-identical at any shard count
/// (docs/OBJECTIVES.md has the full semantics).
/// `qoe_of_page` (and the models it returns) must be safe to call from
/// several shard threads at once — the standard selectors return immutable
/// models and are.
ShardedReplayResult ReplayTraceSharded(std::span<const TraceRecord> records,
                                       const QoeModelSelector& qoe_of_page,
                                       const ServerDelayModel& g,
                                       const ShardedReplayConfig& config);

/// Batch counterpart of ReplayTraceSharded: groups the whole trace by
/// (window, page type) up front — peak memory O(day), the historical
/// pre-sharding behavior docs/SCALE.md describes — then solves and merges
/// the groups serially in ascending (window, page) order. Shares the
/// per-group solve and serial merge with the sharded path, including the
/// abandonment semantics and the model-driven gate metering, so its output
/// (ExperimentResult::Serialize(), telemetry exports, qoe_summary,
/// qoe_histogram) byte-matches ReplayTraceSharded at any shard count; the
/// batch-vs-shard abandonment-parity test (tests/scale_test.cc) pins this.
/// `ControllerConfig::shards` is ignored (the batch path is serial).
ShardedReplayResult ReplayTrace(std::span<const TraceRecord> records,
                                const QoeModelSelector& qoe_of_page,
                                const ServerDelayModel& g,
                                const ShardedReplayConfig& config);

}  // namespace e2e
