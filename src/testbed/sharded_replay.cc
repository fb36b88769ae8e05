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
  std::int64_t window_index = 0;
  int page_index = 0;
  OpenGroup group;
};

// A solved group: the output slot of its pending group's index, merged
// serially in index order.
struct SolvedGroup {
  std::int64_t window_index = 0;
  std::vector<RequestOutcome> outcomes;
  PolicyStats policy_stats;
  /// Page model's MaxQoe(), for per-page histogram normalization.
  double max_qoe = 1.0;
  /// Sessions that quit inside this group, in record order. Applied to the
  /// global abandoned-session set only during the serial merge, so Solve()
  /// stays a pure function and workers never race on shared state.
  std::vector<std::uint64_t> newly_abandoned;
};

// The replay's config validation, its pure per-group solve, and the serial
// merge that owns the abandonment session set, the model-driven metering,
// and the result aggregates.
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
    // Session abandonment (qoe/abandonment.h). The global session set is
    // read on the serial routing path (membership only — never iterated)
    // and written on the serial merge path, so pool workers never touch
    // it. The counter is registered only when the model is live, keeping
    // stock runs' telemetry exports byte-identical.
    abandonment_on_ = abandonment_.enabled();
    if (abandonment_on_) {
      metric_abandoned_ = &telemetry_.metrics.AddCounter("replay.abandoned");
    }
    // Model-driven hedge-gate metering (resilience/cloning_model.h). The
    // replay has no hedge path — it charges planned mean delays — so the
    // mode derives and meters the PS-model gates per model window on the
    // serial merge path without changing any decision: one HedgeMode flows
    // end to end through ExperimentConfig, and the derived gates are
    // exported for the same operators who read them from the testbeds.
    // Registered only in model mode, so static/stock exports keep their
    // historical byte stream.
    const resilience::HedgeConfig& hedge = config.common.resilience.hedge;
    model_driven_ = hedge.enabled &&
                    hedge.mode == resilience::HedgeMode::kModelDriven;
    if (model_driven_) {
      cloning_model_.emplace(hedge.model);  // Validates the knobs.
      service_window_.emplace(hedge.model.target_buckets,
                              hedge.model.max_span_ms);
      model_work_ms_.assign(static_cast<std::size_t>(g_.NumDecisions()), 0.0);
      metric_model_recomputes_ =
          &telemetry_.metrics.AddCounter("replay.model.recomputes");
      metric_model_fraction_ =
          &telemetry_.metrics.AddGauge("replay.model.hedge_fraction");
      metric_model_target_load_ =
          &telemetry_.metrics.AddGauge("replay.model.target_load");
      metric_model_gain_ =
          &telemetry_.metrics.AddGauge("replay.model.predicted_gain_ms");
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
    sg.window_index = pg.window_index;
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
    PolicyResult pr =
        ComputePolicy(qoe, g_, pg.group.externals, rps, ctrl_.policy);
    sg.policy_stats = pr.stats;
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
  // must present groups in ascending (window_index, page_index) order —
  // that ordering is what makes the abandonment set, the model metering,
  // and the aggregates shard-count-invariant.
  void Merge(SolvedGroup& sg) {
    AdvanceModel(static_cast<double>(sg.window_index) * window_ms_);
    ++out_.stats.groups_merged;
    metric_merges_.Increment();
    ++ctrl_stats_.recomputes;
    ctrl_stats_.decisions += sg.outcomes.size();
    ctrl_stats_.observations += sg.outcomes.size();
    ctrl_stats_.last_policy_stats = sg.policy_stats;
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
      if (model_driven_) {
        // The charged (planned mean) server delay doubles as the model's
        // service-time sample; it includes planned queueing, so the
        // utilization the model sees is biased high — i.e. toward keeping
        // the hedge budget shut, the safe direction for a metered proxy.
        // Work is metered per decision so one saturated decision cannot
        // masquerade as cluster-wide busyness (the clamp in AdvanceModel).
        service_window_->Add(o.server_delay_ms);
        model_work_ms_[static_cast<std::size_t>(o.decision)] +=
            o.server_delay_ms;
      }
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
    out_.result.resilience.model_recomputes = model_recomputes_;
    out_.model_prediction = last_prediction_;
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
  // Advances the model clock to `now_ms` (an analysis-window start on the
  // merge path), re-deriving the gates at every elapsed model-window
  // boundary that has enough samples. Thin windows keep accumulating into
  // the same summary instead of deriving gates from noise — the same
  // contract as db::ReadExecutor::MaybeRecomputeBudgets.
  void AdvanceModel(double now_ms) {
    if (!model_driven_) return;
    const resilience::CloningModelConfig& model = cloning_model_->config();
    if (!model_clock_seeded_) {
      model_clock_seeded_ = true;
      model_reset_ms_ = now_ms;
      next_model_recompute_ms_ = now_ms + model.window_ms;
      return;
    }
    while (now_ms >= next_model_recompute_ms_) {
      const double boundary = next_model_recompute_ms_;
      next_model_recompute_ms_ += model.window_ms;
      if (service_window_->sample_count() <
          static_cast<std::size_t>(model.min_samples)) {
        continue;
      }
      // Busy-fraction estimate: each decision target's charged work since
      // the last recompute is a busy-period integral for that target, and
      // no target can be more than fully busy — hence the per-decision
      // min(1, work/elapsed) clamp before averaging. The old scalar sum
      // let one saturated decision push the cluster-wide figure past its
      // own share (even past 1.0), shutting the hedge budget while the
      // other decisions sat idle and could have absorbed clones.
      const double elapsed = boundary - model_reset_ms_;
      double utilization = 0.0;
      for (const double work_ms : model_work_ms_) {
        utilization += std::min(1.0, work_ms / elapsed);
      }
      utilization /= static_cast<double>(g_.NumDecisions());
      last_prediction_ = cloning_model_->Predict(*service_window_, utilization);
      ++model_recomputes_;
      if (metric_model_recomputes_ != nullptr) {
        metric_model_recomputes_->Increment();
        metric_model_fraction_->Set(last_prediction_.max_hedge_fraction);
        metric_model_target_load_->Set(last_prediction_.max_target_load);
        metric_model_gain_->Set(last_prediction_.predicted_gain_ms);
      }
      service_window_.emplace(model.target_buckets, model.max_span_ms);
      std::fill(model_work_ms_.begin(), model_work_ms_.end(), 0.0);
      model_reset_ms_ = boundary;
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

  obs::Telemetry telemetry_;
  obs::Counter& metric_merges_;
  obs::Counter& metric_windows_;
  obs::Counter* metric_abandoned_ = nullptr;

  bool model_driven_ = false;
  std::optional<resilience::CloningModel> cloning_model_;
  std::optional<Bucketizer> service_window_;
  bool model_clock_seeded_ = false;
  double model_reset_ms_ = 0.0;
  double next_model_recompute_ms_ = 0.0;
  // Charged (planned mean) server-delay work per decision target since the
  // last recompute, in ms of busy time.
  std::vector<double> model_work_ms_;
  std::uint64_t model_recomputes_ = 0;
  resilience::CloningPrediction last_prediction_;
  obs::Counter* metric_model_recomputes_ = nullptr;
  obs::Gauge* metric_model_fraction_ = nullptr;
  obs::Gauge* metric_model_target_load_ = nullptr;
  obs::Gauge* metric_model_gain_ = nullptr;

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
      [&](std::int64_t window_index) {
        engine.WindowClosed();
        // Every open group belongs to the window being closed (records are
        // sorted and all earlier windows were closed already).
        for (int page = 0; page < kNumPageTypes; ++page) {
          std::optional<OpenGroup>& group =
              open[static_cast<std::size_t>(page)];
          if (!group) continue;
          pending.push_back(
              PendingGroup{window_index, page, std::move(*group)});
          group.reset();
        }
        if (pending.size() >= flush_threshold) flush();
      });
  flush();
  return engine.Finish(records.size());
}

}  // namespace e2e
