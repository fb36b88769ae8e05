#include "testbed/sharded_replay.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "obs/export.h"
#include "stats/bucketizer.h"
#include "trace/windows.h"
#include "util/clock.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace e2e {
namespace {

// One still-open (page, window) group: delays accumulate into the streaming
// bucketizer as records arrive; the records themselves are needed again at
// solve time for per-request decisions.
struct OpenGroup {
  OpenGroup(int target_buckets, double max_span)
      : externals(target_buckets, max_span) {}

  Bucketizer externals;
  std::vector<const TraceRecord*> records;
  /// Parallel to `records`: set when the record's session had already
  /// abandoned before this window, so the record was excluded from
  /// `externals` at routing time (always false with abandonment off).
  std::vector<std::uint8_t> pre_abandoned;
};

// A closed group waiting for the next flush.
struct PendingGroup {
  int page_index = 0;
  OpenGroup group;
};

// A solved group: the output slot of its pending group's index, merged
// serially in index order.
struct SolvedGroup {
  std::vector<RequestOutcome> outcomes;
  /// Whether the group ran ComputePolicy (false for a flat group).
  bool solved = false;
  PolicyStats policy_stats;
  /// Page model's MaxQoe(), for per-page histogram normalization.
  double max_qoe = 1.0;
  /// Sessions that quit inside this group, in record order. Applied to the
  /// global abandoned-session set only during the serial merge, so Solve()
  /// stays a pure function and workers never race on shared state.
  std::vector<std::uint64_t> newly_abandoned;
};

// The replay's config validation, its pure per-group solve, and the serial
// merge that owns the abandonment session set and the result aggregates.
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
    // Flat groups skip ComputePolicy, so check here what each solve would.
    ValidatePolicyConfig(ctrl_.policy);
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
  const PolicyConfig& policy() const { return ctrl_.policy; }
  bool abandonment_on() const { return abandonment_on_; }
  void set_shards(int shards) { out_.stats.shards = shards; }

  /// True when `session_id` quit in an *earlier* analysis window (every
  /// earlier window is merged before the current one routes/builds).
  bool SessionGone(std::uint64_t session_id) const {
    return abandonment_on_ && abandoned_sessions_.count(session_id) > 0;
  }

  void RecordRouted() { ++out_.stats.records; }

  void WindowClosed() {
    ++out_.stats.windows_streamed;
    metric_windows_.Increment();
    ++ctrl_stats_.ticks;
  }

  // Solves one closed group: a pure function of (records, config), so any
  // worker may run it in any order without touching the merged bytes.
  SolvedGroup Solve(const PendingGroup& pg) const {
    SolvedGroup sg;
    const QoeModel& qoe = qoe_of_page_(PageTypeFromIndex(pg.page_index));
    sg.max_qoe = qoe.MaxQoe();
    sg.outcomes.reserve(pg.group.records.size());
    // Offered load counts only records whose sessions are still here:
    // abandonment removes a session from downstream window load (its
    // delays were already excluded from the bucketizer at routing time).
    std::size_t live = 0;
    for (const std::uint8_t gone : pg.group.pre_abandoned) {
      if (gone == 0) ++live;
    }
    if (live == 0) {
      // Every record belongs to an abandoned session — nothing to plan.
      for (const TraceRecord* r : pg.group.records) {
        RequestOutcome o;
        o.id = r->request_id;
        o.arrival_ms = r->arrival_ms;
        o.external_delay_ms = r->external_delay_ms;
        o.status = RequestStatus::kAbandoned;
        sg.outcomes.push_back(o);
      }
      return sg;
    }
    const double rps = static_cast<double>(live) / (window_ms_ / 1000.0) *
                       ctrl_.rps_planning_factor;
    // The largest share of `rps` a plan can offer one decision. The climb's
    // unit shares units/n are at most 1. A SplitOf or load_fractions entry
    // sums k <= live bucket weights, each population/live rounded once (or
    // twice per request: count·(1/live)), so with u = 2^-53 it is at most
    // (1 + u)^(k + 1) <= 1 + 2(live + 1)u. The bound below is twice that,
    // exact in double, and rounding is monotone, so no decision is offered
    // more than rps · max_share as G computes it (fraction · total_rps).
    const double max_share = 1.0 + static_cast<double>(live + 1) * 0x1p-51;
    PolicyResult pr;
    if (g_.FlatUpTo(rps * max_share)) {
      // Every decision serves the same delays at every split a solve could
      // try, so every allocation scores the same, the degenerate start
      // wins and the table sends each bucket to decision 0. Its charge,
      // G(0, load_fractions, rps), is then G(0, {1, 0, ...}, rps): skip the
      // bucket build and the solve and install that one-row table.
      pr.table.rows.emplace_back();
      pr.table.load_fractions.assign(
          static_cast<std::size_t>(g_.NumDecisions()), 0.0);
      pr.table.load_fractions[0] = 1.0;
    } else {
      pr = ComputePolicy(qoe, g_, pg.group.externals, rps, ctrl_.policy);
      sg.solved = true;
      sg.policy_stats = pr.stats;
    }
    // Per-decision mean server delay under the installed split, computed
    // once per decision actually used.
    std::vector<double> mean_delay(
        static_cast<std::size_t>(g_.NumDecisions()), -1.0);
    // Sessions that quit earlier in this same group (record order): their
    // later records cascade to kAbandoned without being served.
    std::unordered_set<std::uint64_t> quit_here;
    for (std::size_t i = 0; i < pg.group.records.size(); ++i) {
      const TraceRecord* r = pg.group.records[i];
      RequestOutcome o;
      o.id = r->request_id;
      o.arrival_ms = r->arrival_ms;
      o.external_delay_ms = r->external_delay_ms;
      if (pg.group.pre_abandoned[i] != 0 ||
          (abandonment_on_ && quit_here.count(r->session_id) > 0)) {
        o.status = RequestStatus::kAbandoned;
        sg.outcomes.push_back(o);
        continue;
      }
      const DecisionTableRow& row = pr.table.LookupRow(r->external_delay_ms);
      const auto d = static_cast<std::size_t>(row.decision);
      if (mean_delay[d] < 0.0) {
        mean_delay[d] =
            g_.DelayDistribution(row.decision, pr.table.load_fractions, rps)
                .Mean();
      }
      o.server_delay_ms = mean_delay[d];
      o.decision = row.decision;
      const double total_delay = r->external_delay_ms + mean_delay[d];
      if (abandonment_on_ &&
          abandonment_.Abandons(r->session_id,
                                qoe.Classify(r->external_delay_ms),
                                total_delay)) {
        // The user quit waiting on this very request: it consumed service
        // (decision and server delay stand) but yields no QoE, and the
        // session is gone from here on.
        o.status = RequestStatus::kAbandoned;
        quit_here.insert(r->session_id);
        sg.newly_abandoned.push_back(r->session_id);
      } else {
        o.qoe = qoe.Qoe(total_delay);
        o.status = RequestStatus::kCompleted;
      }
      sg.outcomes.push_back(o);
    }
    return sg;
  }

  // Folds one solved group into the result. Serial path only, and callers
  // must present groups in ascending (window, page) order — that ordering
  // is what makes the abandonment set and the aggregates
  // shard-count-invariant.
  void Merge(SolvedGroup& sg) {
    ++out_.stats.groups_merged;
    metric_merges_.Increment();
    ++ctrl_stats_.recomputes;
    ctrl_stats_.decisions += sg.outcomes.size();
    ctrl_stats_.observations += sg.outcomes.size();
    if (sg.solved) {
      ++out_.stats.groups_solved;
      ctrl_stats_.last_policy_stats = sg.policy_stats;
    }
    // Quits take effect from the next analysis window on; applying them
    // here, in (window, page) order, is what makes the effect
    // shard-count-invariant.
    for (const std::uint64_t session : sg.newly_abandoned) {
      abandoned_sessions_.insert(session);
      if (metric_abandoned_ != nullptr) metric_abandoned_->Increment();
    }
    // Served-QoE distribution aggregates (summary + per-page-normalized
    // histogram), maintained here on the serial path in both outcome
    // modes so full-volume (aggregate-only) runs still yield a CDF.
    for (const RequestOutcome& o : sg.outcomes) {
      if (!o.Served()) continue;
      out_.qoe_summary.Add(o.qoe);
      const double unit = sg.max_qoe > 0.0 ? o.qoe / sg.max_qoe : 0.0;
      const auto bin = static_cast<std::size_t>(std::clamp(
          static_cast<int>(unit * 100.0), 0,
          static_cast<int>(out_.qoe_histogram.size()) - 1));
      ++out_.qoe_histogram[bin];
    }
    if (config_.keep_outcomes) {
      out_.result.outcomes.insert(out_.result.outcomes.end(),
                                  sg.outcomes.begin(), sg.outcomes.end());
    } else {
      for (const RequestOutcome& o : sg.outcomes) {
        if (!o.Served()) {
          ++abandoned_;  // Only kAbandoned reaches here in this replayer.
          continue;
        }
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
  const QoeModelSelector& qoe_of_page_;
  const ServerDelayModel& g_;
  const ShardedReplayConfig& config_;
  const ControllerConfig& ctrl_;
  double window_ms_;
  AbandonmentModel abandonment_;
  bool abandonment_on_ = false;
  std::unordered_set<std::uint64_t> abandoned_sessions_;

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
  std::array<std::optional<OpenGroup>, kNumPageTypes> open;
  // Closed groups, appended in page order at each window close, so the
  // list is already in ascending (window, page) order.
  std::vector<PendingGroup> pending;

  // Solves every pending group (fanned out one index per group) and merges
  // the results serially in index order, which is (window, page) order.
  // Flush batching therefore cannot reach the output bytes
  // (docs/SCALE.md).
  const auto flush = [&] {
    std::vector<SolvedGroup> solved(pending.size());
    pool.ParallelFor(pending.size(), [&](std::size_t i) {
      solved[i] = engine.Solve(pending[i]);
    });
    for (SolvedGroup& sg : solved) engine.Merge(sg);
    pending.clear();
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
        std::optional<OpenGroup>& group =
            open[static_cast<std::size_t>(Index(key.page_type))];
        if (!group) {
          group.emplace(engine.policy().target_buckets,
                        engine.policy().max_bucket_span_ms);
        }
        // A session that abandoned in an earlier window contributes no
        // load: its record is routed (for the conservation count and its
        // kAbandoned outcome) but kept out of the group's bucketizer.
        const bool gone = engine.SessionGone(r.session_id);
        if (!gone) group->externals.Add(r.external_delay_ms);
        group->records.push_back(&r);
        group->pre_abandoned.push_back(gone ? 1 : 0);
        engine.RecordRouted();
      },
      [&](std::int64_t) {
        engine.WindowClosed();
        // Every open group belongs to the window being closed (records are
        // sorted and all earlier windows were closed already).
        for (int page = 0; page < kNumPageTypes; ++page) {
          std::optional<OpenGroup>& group =
              open[static_cast<std::size_t>(page)];
          if (!group) continue;
          pending.push_back(PendingGroup{page, std::move(*group)});
          group.reset();
        }
        if (pending.size() >= flush_threshold) flush();
      });
  flush();
  return engine.Finish(records.size());
}

}  // namespace e2e
