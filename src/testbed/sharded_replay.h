// Full-trace controller replay (docs/SCALE.md).
//
// Replays a whole recorded day through the E2E policy at full volume by
// streaming the arrival-sorted trace once and planning each (page type ×
// analysis window) group independently. Because the trace is sorted, only
// one window is open at a time: the router appends each record to its
// page's open group, and closed groups queue in (window, page) order. Each
// flush classifies them on the calling thread. A group with no live load
// needs no plan, and neither does one at whose load G serves every
// decision the same delays: no plan can change a request's QoE, so it is
// charged straight from G. The rest are planned on a pool of
// `ControllerConfig::shards` workers, one index per group: buckets built
// from the group's live delays, then ComputePolicy. The serial merge then
// charges every record from its group's plan, in (window, page) order, so
// the output byte stream is identical at any shard count (the scale test
// tier proves shards ∈ {1, 2, 4, 7} byte-equal), and the serial part of a
// sharded replay is the router and the merge.
//
// Peak memory is O(window × flush batch), not O(day): only the open window
// and the groups awaiting a flush hold records, and with
// `keep_outcomes == false` each charged record is folded into running
// aggregates instead of being retained (perfbench's `replay_day` workload
// replays the paper's full 1.6M-load day this way).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/server_delay_model.h"
#include "stats/summary.h"
#include "testbed/counterfactual.h"
#include "testbed/experiment_config.h"
#include "testbed/metrics.h"
#include "trace/record.h"

namespace e2e {

/// Configuration for one replay. The shard count, analysis window
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

/// Replay bookkeeping, all deterministic and shard-count-invariant. None of
/// it reaches the result bytes or the telemetry exports.
struct ShardedReplayStats {
  std::uint64_t windows_streamed = 0;  ///< Window-close events observed.
  std::uint64_t groups_merged = 0;     ///< (page, window) groups merged.
  std::uint64_t groups_solved = 0;     ///< Groups that ran ComputePolicy.
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
};

/// Replays `records` (sorted by arrival_ms; throws otherwise) through the
/// two-level policy against server-delay model `g`, with per-page QoE
/// models from `qoe_of_page`. Each group's offered load is estimated as its
/// own arrival rate times `rps_planning_factor` (finite and > 0, or the
/// replay throws std::invalid_argument); each record takes the
/// decision its external delay maps to in the group's table and is charged
/// the mean of that decision's delay distribution under the planned split.
/// A group whose load `g.FlatUpTo` declares flat (no plan can offer one
/// decision enough load to change its delays) is not solved: every record
/// takes decision 0 at G(0, {1, 0, ...}), which is bit for bit what the
/// solved table charges (docs/SCALE.md). Such a group counts in
/// `groups_merged` but not `groups_solved`, and
/// `result.controller_stats.last_policy_stats` holds the last *solved*
/// group's stats (nothing serializes that field). The policy config is
/// validated once up front (ValidatePolicyConfig), so a day of flat groups
/// rejects the configs a solve would.
/// The shard count is `config.common.controller.shards`
/// (ControllerConfig::shards): 0 picks ThreadPool::DefaultWorkers(), 1 is
/// serial, N > 1 plans on min(N, DefaultWorkers()) pool workers and
/// flushes every max(4, 2N) closed groups (negative throws). The replay
/// charges planned delays, so it has no fault, retry, hedge, breaker or
/// admission path: a fault plan or any enabled resilience mechanism throws
/// (RequireNoFaultPlan, RequireNoResilience).
///
/// When `common.abandonment.enabled`, a session whose total delay
/// (external + planned mean server delay) exceeds its seeded patience quits:
/// the triggering request and the session's later requests in the same
/// group are marked kAbandoned, and from the *next* analysis window on the
/// session's requests are excluded from group load (buckets and planned
/// rps) entirely. Quits propagate through the global session set only on
/// the serial merge path, and every window is flushed before the next one
/// routes, so results stay byte-identical at any shard count
/// (docs/OBJECTIVES.md has the full semantics).
/// `qoe_of_page` (and the models it returns) must be safe to call from
/// several pool workers at once — the standard selectors return immutable
/// models and are.
ShardedReplayResult ReplayTraceSharded(std::span<const TraceRecord> records,
                                       const QoeModelSelector& qoe_of_page,
                                       const ServerDelayModel& g,
                                       const ShardedReplayConfig& config);

}  // namespace e2e
