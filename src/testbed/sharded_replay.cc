#include "testbed/sharded_replay.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "obs/export.h"
#include "trace/windows.h"
#include "util/clock.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace e2e {
namespace {

// The records of one (page, window) group in arrival order. The open
// window's buffers trade places with a merged pending slot's at each window
// close, so their capacity is reused from window to window.
struct GroupRecords {
  std::vector<const TraceRecord*> records;
  /// With abandonment on, parallel to `records`: set when the record's
  /// session had already abandoned before this window, so the record
  /// carries no load. Empty with abandonment off.
  std::vector<std::uint8_t> pre_abandoned;
  /// Records not pre-abandoned: the group's offered load.
  std::size_t live = 0;

  bool PreAbandoned(std::size_t i) const {
    return !pre_abandoned.empty() && pre_abandoned[i] != 0;
  }

  void Clear() {
    records.clear();
    pre_abandoned.clear();
    live = 0;
  }
};

// A closed group waiting for the next flush, with what the flush decides
// for it. A group with no live load or a flat one gets no plan.
struct PendingGroup {
  int page_index = 0;
  GroupRecords group;
  double rps = 0.0;       ///< Planned offered load; set when `live > 0`.
  bool planned = false;   ///< Whether `plan` holds this group's solve.
  PolicyResult plan;
};

// The replay's config validation, its pure per-group plan step, and the
// serial charge that owns the abandonment session set and the result
// aggregates.
class ReplayEngine {
 public:
  ReplayEngine(const QoeModelSelector& qoe_of_page, const ServerDelayModel& g,
               const ShardedReplayConfig& config)
      : qoe_of_page_(qoe_of_page),
        g_(g),
        config_(config),
        ctrl_(config.common.controller),
        window_ms_(ctrl_.external.window_ms),
        abandonment_(config.common.abandonment),
        flat_fractions_(static_cast<std::size_t>(g.NumDecisions()), 0.0),
        mean_delay_(flat_fractions_.size()),
        // Telemetry on the frozen virtual clock: counters are bumped only
        // on the serial routing/merge paths, so exports are shard-count-
        // invariant.
        telemetry_(config.common.collect_telemetry, &VirtualClock::Frozen()),
        metric_merges_(
            telemetry_.metrics.AddCounter("controller.shard_merges")),
        metric_windows_(
            telemetry_.metrics.AddCounter("controller.windows_streamed")) {
    RequireNoFaultPlan(config.common, "ReplayTraceSharded");
    RequireNoResilience(config.common, "ReplayTraceSharded");
    // Flat groups skip the bucket build and ComputePolicy, so check here
    // what each would.
    ValidatePolicyConfig(ctrl_.policy);
    flat_fractions_[0] = 1.0;
    // Session abandonment (qoe/abandonment.h). The global session set is
    // read on the serial routing path (membership only — never iterated)
    // and written on the serial merge path, so pool workers never touch
    // it. The counter is registered only when the model is live, keeping
    // stock runs' telemetry exports byte-identical.
    abandonment_on_ = abandonment_.enabled();
    if (abandonment_on_) {
      metric_abandoned_ = &telemetry_.metrics.AddCounter("replay.abandoned");
    }
  }

  double window_ms() const { return window_ms_; }
  bool abandonment_on() const { return abandonment_on_; }
  void set_shards(int shards) { out_.stats.shards = shards; }

  /// True when `session_id` quit in an *earlier* analysis window (every
  /// earlier window is merged before the current one routes).
  bool SessionGone(std::uint64_t session_id) const {
    return abandonment_on_ && abandoned_sessions_.count(session_id) > 0;
  }

  void RecordRouted() { ++out_.stats.records; }

  void WindowClosed() {
    ++out_.stats.windows_streamed;
    metric_windows_.Increment();
    ++ctrl_stats_.ticks;
  }

  // Classifies one closed group on the calling thread and returns whether
  // it needs a plan. A group whose every record belongs to an abandoned
  // session has nothing to plan; a flat one is charged straight from G.
  bool NeedsPlan(PendingGroup& pg) const {
    const std::size_t live = pg.group.live;
    pg.planned = false;
    if (live == 0) return false;
    pg.rps = static_cast<double>(live) / (window_ms_ / 1000.0) *
             ctrl_.rps_planning_factor;
    // The largest share of `rps` a plan can offer one decision. The climb's
    // unit shares units/n are at most 1. A SplitOf or load_fractions entry
    // sums k <= live bucket weights, each population/live rounded once (or
    // twice per request: count·(1/live)), so with u = 2^-53 it is at most
    // (1 + u)^(k + 1) <= 1 + 2(live + 1)u. The bound below is twice that,
    // exact in double, and rounding is monotone, so no decision is offered
    // more than rps · max_share as G computes it (fraction · total_rps).
    const double max_share = 1.0 + static_cast<double>(live + 1) * 0x1p-51;
    pg.planned = !g_.FlatUpTo(pg.rps * max_share);
    return pg.planned;
  }

  // Plans one group that needs a plan: a pure function of its live delays
  // (the multiset the group's load is) and the config, so any worker may
  // run it in any order.
  void Plan(PendingGroup& pg) const {
    std::vector<double> delays;
    delays.reserve(pg.group.live);
    for (std::size_t i = 0; i < pg.group.records.size(); ++i) {
      if (!pg.group.PreAbandoned(i)) {
        delays.push_back(pg.group.records[i]->external_delay_ms);
      }
    }
    pg.plan = ComputePolicy(qoe_of_page_(PageTypeFromIndex(pg.page_index)), g_,
                            delays, pg.rps, ctrl_.policy);
  }

  // Charges every record of one closed group from its plan and folds it
  // into the result. Serial path only, and callers must present groups in
  // ascending (window, page) order — that ordering is what makes the
  // abandonment set and the aggregates shard-count-invariant.
  void Merge(const PendingGroup& pg) {
    const GroupRecords& group = pg.group;
    ++out_.stats.groups_merged;
    metric_merges_.Increment();
    ++ctrl_stats_.recomputes;
    ctrl_stats_.decisions += group.records.size();
    ctrl_stats_.observations += group.records.size();
    if (pg.planned) {
      ++out_.stats.groups_solved;
      ctrl_stats_.last_policy_stats = pg.plan.stats;
    }
    const QoeModel& qoe = qoe_of_page_(PageTypeFromIndex(pg.page_index));
    const double max_qoe = qoe.MaxQoe();
    // A flat group's solve would send every bucket to decision 0, whose
    // charge G(0, load_fractions, rps) is then G(0, {1, 0, ...}, rps)
    // (docs/SCALE.md §1).
    const std::vector<double>& fractions =
        pg.planned ? pg.plan.table.load_fractions : flat_fractions_;
    // Per-decision mean server delay under the group's split, computed
    // once per decision actually used.
    std::fill(mean_delay_.begin(), mean_delay_.end(), -1.0);
    // Sessions that quit earlier in this same group (record order): their
    // later records cascade to kAbandoned without being served.
    quit_here_.clear();
    for (std::size_t i = 0; i < group.records.size(); ++i) {
      const TraceRecord& r = *group.records[i];
      RequestOutcome o;
      o.id = r.request_id;
      o.arrival_ms = r.arrival_ms;
      o.external_delay_ms = r.external_delay_ms;
      if (group.PreAbandoned(i) ||
          (abandonment_on_ && quit_here_.count(r.session_id) > 0)) {
        o.status = RequestStatus::kAbandoned;
        Fold(o, max_qoe);
        continue;
      }
      o.decision =
          pg.planned ? pg.plan.table.LookupRow(r.external_delay_ms).decision
                     : 0;
      double& mean = mean_delay_[static_cast<std::size_t>(o.decision)];
      if (mean < 0.0) {
        mean = g_.DelayDistribution(o.decision, fractions, pg.rps).Mean();
      }
      o.server_delay_ms = mean;
      const double total_delay = r.external_delay_ms + mean;
      if (abandonment_on_ &&
          abandonment_.Abandons(r.session_id,
                                qoe.Classify(r.external_delay_ms),
                                total_delay)) {
        // The user quit waiting on this very request: it consumed service
        // (decision and server delay stand) but yields no QoE, and the
        // session is gone from the next analysis window on. Every window
        // is merged before the next one routes, in (window, page) order,
        // so when a quit lands cannot depend on the shard count.
        o.status = RequestStatus::kAbandoned;
        quit_here_.insert(r.session_id);
        abandoned_sessions_.insert(r.session_id);
        metric_abandoned_->Increment();
      } else {
        o.qoe = qoe.Qoe(total_delay);
        o.status = RequestStatus::kCompleted;
      }
      Fold(o, max_qoe);
    }
  }

  ShardedReplayResult Finish(std::size_t arrivals) {
    out_.result.controller_stats = ctrl_stats_;
    out_.result.arrivals = arrivals;
    if (config_.keep_outcomes) {
      out_.result.Finalize();
    } else {
      out_.result.completed = served_;
      out_.result.abandoned = abandoned_;
      if (served_ > 0) {
        const auto n = static_cast<double>(served_);
        out_.result.mean_qoe = sum_qoe_ / n;
        out_.result.mean_server_delay_ms = sum_server_ / n;
        out_.result.throughput_rps =
            last_arrival_ > first_arrival_
                ? n / ((last_arrival_ - first_arrival_) / 1000.0)
                : 0.0;
      }
    }
    if (telemetry_.enabled()) out_.result.telemetry = telemetry_.Snapshot();
    return std::move(out_);
  }

 private:
  // Folds one charged record into the result. The served-QoE distribution
  // aggregates (summary + per-page-normalized histogram) are kept in both
  // outcome modes, so full-volume (aggregate-only) runs still yield a CDF.
  void Fold(const RequestOutcome& o, double max_qoe) {
    if (o.Served()) {
      out_.qoe_summary.Add(o.qoe);
      const double unit = max_qoe > 0.0 ? o.qoe / max_qoe : 0.0;
      const auto bin = static_cast<std::size_t>(std::clamp(
          static_cast<int>(unit * 100.0), 0,
          static_cast<int>(out_.qoe_histogram.size()) - 1));
      ++out_.qoe_histogram[bin];
    }
    if (config_.keep_outcomes) {
      out_.result.outcomes.push_back(o);
    } else if (!o.Served()) {
      ++abandoned_;  // Only kAbandoned reaches here in this replayer.
    } else {
      sum_qoe_ += o.qoe;
      sum_server_ += o.server_delay_ms;
      ++served_;
      if (!first_seen_) {
        first_seen_ = true;
        first_arrival_ = last_arrival_ = o.arrival_ms;
      }
      first_arrival_ = std::min(first_arrival_, o.arrival_ms);
      last_arrival_ = std::max(last_arrival_, o.arrival_ms);
    }
  }

  const QoeModelSelector& qoe_of_page_;
  const ServerDelayModel& g_;
  const ShardedReplayConfig& config_;
  const ControllerConfig& ctrl_;
  double window_ms_;
  AbandonmentModel abandonment_;
  bool abandonment_on_ = false;
  std::unordered_set<std::uint64_t> abandoned_sessions_;
  /// The flat plan's split, {1, 0, ...}.
  std::vector<double> flat_fractions_;
  // Merge buffers, reused from group to group.
  std::vector<double> mean_delay_;
  std::unordered_set<std::uint64_t> quit_here_;

  obs::Telemetry telemetry_;
  obs::Counter& metric_merges_;
  obs::Counter& metric_windows_;
  obs::Counter* metric_abandoned_ = nullptr;

  ShardedReplayResult out_;
  ControllerStats ctrl_stats_;

  // Aggregate-only accumulators (keep_outcomes == false).
  double sum_qoe_ = 0.0;
  double sum_server_ = 0.0;
  std::uint64_t served_ = 0;
  std::uint64_t abandoned_ = 0;
  bool first_seen_ = false;
  double first_arrival_ = 0.0;
  double last_arrival_ = 0.0;
};

}  // namespace

ShardedReplayResult ReplayTraceSharded(std::span<const TraceRecord> records,
                                       const QoeModelSelector& qoe_of_page,
                                       const ServerDelayModel& g,
                                       const ShardedReplayConfig& config) {
  const ControllerConfig& ctrl = config.common.controller;
  if (ctrl.shards < 0) {
    throw std::invalid_argument("ReplayTraceSharded: negative shard count");
  }
  if (!std::isfinite(ctrl.rps_planning_factor) ||
      ctrl.rps_planning_factor <= 0.0) {
    throw std::invalid_argument(
        "ReplayTraceSharded: rps_planning_factor not finite and > 0");
  }
  const int shards =
      ctrl.shards == 0 ? ThreadPool::DefaultWorkers() : ctrl.shards;

  ReplayEngine engine(qoe_of_page, g, config);
  engine.set_shards(shards);
  // A one-worker pool spawns no thread, so a serial replay leaves the
  // process in libstdc++'s single-threaded mode (DESIGN.md §6).
  ThreadPool pool(std::min(shards, ThreadPool::DefaultWorkers()));

  // Records arrive sorted by arrival and StreamByWindow closes windows in
  // ascending order, so only one window is ever open: one slot per page.
  std::array<GroupRecords, kNumPageTypes> open;
  // The first `closed` slots hold the closed groups, appended in page order
  // at each window close, so they are already in ascending (window, page)
  // order. The slots outlive each flush and lend their buffers back to
  // `open`.
  std::vector<PendingGroup> pending;
  std::size_t closed = 0;
  std::vector<std::size_t> to_plan;

  // Classifies the closed groups on this thread, plans on the pool only
  // those that need a plan (one index per group), then charges every group
  // serially in index order, which is (window, page) order. Flush batching
  // therefore cannot reach the output bytes (docs/SCALE.md).
  const auto flush = [&] {
    to_plan.clear();
    for (std::size_t i = 0; i < closed; ++i) {
      if (engine.NeedsPlan(pending[i])) to_plan.push_back(i);
    }
    if (!to_plan.empty()) {
      pool.ParallelFor(to_plan.size(), [&](std::size_t k) {
        engine.Plan(pending[to_plan[k]]);
      });
    }
    for (std::size_t i = 0; i < closed; ++i) engine.Merge(pending[i]);
    closed = 0;
  };

  // Abandonment requires every window's quits to be merged into the global
  // session set before the next window's records route, so the model forces
  // a flush at each window close. (A shard-dependent threshold would also
  // make *when* quits land depend on the shard count.) Without abandonment
  // the batching threshold is free to amortize pool dispatch.
  const auto flush_threshold =
      engine.abandonment_on()
          ? std::size_t{1}
          : static_cast<std::size_t>(std::max(4, 2 * shards));

  StreamByWindow(
      records, engine.window_ms(),
      [&](const WindowKey& key, const TraceRecord& r) {
        GroupRecords& group =
            open[static_cast<std::size_t>(Index(key.page_type))];
        // A session that abandoned in an earlier window contributes no
        // load: its record is routed (for the conservation count and its
        // kAbandoned outcome) but kept out of the group's live load.
        const bool gone = engine.SessionGone(r.session_id);
        group.records.push_back(&r);
        if (engine.abandonment_on()) group.pre_abandoned.push_back(gone);
        if (!gone) ++group.live;
        engine.RecordRouted();
      },
      [&](std::int64_t) {
        engine.WindowClosed();
        // Every open group belongs to the window being closed (records are
        // sorted and all earlier windows were closed already).
        for (int page = 0; page < kNumPageTypes; ++page) {
          GroupRecords& group = open[static_cast<std::size_t>(page)];
          if (group.records.empty()) continue;
          if (closed == pending.size()) pending.emplace_back();
          PendingGroup& pg = pending[closed++];
          pg.page_index = page;
          std::swap(pg.group, group);
          group.Clear();
        }
        if (closed >= flush_threshold) flush();
      });
  flush();
  return engine.Finish(records.size());
}

}  // namespace e2e
