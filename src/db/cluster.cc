#include "db/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace e2e::db {

ReplicaGroup::ReplicaGroup(int index, EventLoop& loop,
                           const ClusterParams& params, Rng rng)
    : index_(index),
      server_("replica-" + std::to_string(index), loop,
              params.concurrency_per_replica,
              MakeConvexLoadProfile(params.base_service_ms, params.capacity,
                                    params.service_alpha, params.service_beta,
                                    params.jitter_sigma),
              rng) {}

Cluster::Cluster(EventLoop& loop, ClusterParams params, Rng rng)
    : loop_(loop), params_(params) {
  if (params_.replica_groups < 1) {
    throw std::invalid_argument("Cluster: replica_groups < 1");
  }
  for (int i = 0; i < params_.replica_groups; ++i) {
    replicas_.push_back(std::make_unique<ReplicaGroup>(
        i, loop_, params_, rng.Fork(static_cast<std::uint64_t>(i))));
  }
}

void Cluster::LoadDataset(std::size_t num_keys, std::size_t value_bytes) {
  for (const auto& replica : replicas_) {
    if (!replica->storage().empty()) {
      throw std::logic_error("Cluster::LoadDataset: replica " +
                             std::to_string(replica->index()) +
                             " already holds rows");
    }
  }
  // Every replica group stores a full copy (the replication strategy the
  // paper adopts for E2E: choose a replica group per request). The copies
  // share the one table built here.
  Rows rows;
  rows.reserve(num_keys);
  const std::string payload(value_bytes, 'v');
  for (std::size_t k = 0; k < num_keys; ++k) {
    rows.emplace_back(static_cast<Key>(k), payload);
  }
  const StorageEngine table(std::move(rows));
  for (auto& replica : replicas_) replica->storage() = table;
}

void Cluster::RangeRead(Key start, std::size_t count, int replica,
                        std::function<void(ReadResult)> done) {
  if (replica < 0 || replica >= NumReplicas()) {
    throw std::out_of_range("Cluster::RangeRead: bad replica index");
  }
  if (!done) {
    throw std::invalid_argument("Cluster::RangeRead: empty callback");
  }
  ReplicaGroup& group = *replicas_[static_cast<std::size_t>(replica)];
  ReplicaMetrics* metrics =
      metrics_.empty() ? nullptr : &metrics_[static_cast<std::size_t>(replica)];
  group.server().Submit(
      [&group, start, count, replica, metrics, done = std::move(done)](
          const JobTiming& timing) {
        if (metrics != nullptr) {
          metrics->reads->Increment();
          metrics->service_ms->Observe(timing.ServiceDelayMs());
        }
        ReadResult result;
        result.rows = group.storage().RangeQuery(start, count);
        result.replica = replica;
        result.timing = timing;
        done(std::move(result));
      });
}

void Cluster::SetReplicaExtraDelayMs(int replica, double extra_ms) {
  if (replica < -1 || replica >= NumReplicas()) {
    throw std::out_of_range("Cluster::SetReplicaExtraDelayMs: bad replica");
  }
  for (int r = 0; r < NumReplicas(); ++r) {
    if (replica == -1 || replica == r) {
      replicas_[static_cast<std::size_t>(r)]->server().SetExtraServiceDelayMs(
          extra_ms);
    }
  }
}

void Cluster::SetReplicaPartitioned(int replica, bool partitioned) {
  if (replica < -1 || replica >= NumReplicas()) {
    throw std::out_of_range("Cluster::SetReplicaPartitioned: bad replica");
  }
  for (int r = 0; r < NumReplicas(); ++r) {
    if (replica == -1 || replica == r) {
      replicas_[static_cast<std::size_t>(r)]->SetPartitioned(partitioned);
    }
  }
}

bool Cluster::IsPartitioned(int replica) const {
  if (replica < 0 || replica >= NumReplicas()) {
    throw std::out_of_range("Cluster::IsPartitioned: bad replica");
  }
  return replicas_[static_cast<std::size_t>(replica)]->partitioned();
}

void Cluster::AttachMetrics(obs::MetricsRegistry& registry) {
  metrics_.clear();
  for (int r = 0; r < NumReplicas(); ++r) {
    const std::string prefix = "db.replica" + std::to_string(r);
    ReplicaMetrics metrics;
    metrics.reads = &registry.AddCounter(prefix + ".reads");
    metrics.service_ms = &registry.AddHistogram(
        prefix + ".service_ms",
        {10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 250.0, 500.0, 1000.0, 2500.0,
         5000.0});
    metrics_.push_back(metrics);
  }
}

ClusterView Cluster::View() const {
  ClusterView view;
  view.loads.reserve(replicas_.size());
  view.recent_delay_ms.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    view.loads.push_back(replica->server().Load());
    view.recent_delay_ms.push_back(
        replica->server().total_delay_stats().count() == 0
            ? 0.0
            : replica->server().total_delay_stats().mean());
  }
  return view;
}

ReadExecutor::ReadExecutor(Cluster& cluster,
                           std::shared_ptr<ReplicaSelector> selector)
    : cluster_(cluster), selector_(std::move(selector)) {
  if (selector_ == nullptr) {
    throw std::invalid_argument("ReadExecutor: null selector");
  }
}

void ReadExecutor::AttachMetrics(obs::MetricsRegistry& registry) {
  metric_requests_ = &registry.AddCounter("db.requests");
  metric_failovers_ = &registry.AddCounter("db.failovers");
}

void ReadExecutor::ExecuteRangeRead(const DbRequest& request,
                                    std::function<void(ReadResult)> done) {
  if (metric_requests_ != nullptr) metric_requests_->Increment();
  if (resilience_enabled_) {
    IssueWithRetries(request, std::move(done), 0, cluster_.loop().Now());
    return;
  }
  const ClusterView view = cluster_.View();
  const int selected = selector_->SelectReplica(request, view);
  int replica = selected;
  if (cluster_.IsPartitioned(selected)) {
    // Fail over to the least-loaded reachable replica (lowest index on
    // ties, so the reroute is deterministic). When every replica is
    // partitioned the original choice serves anyway: a fully partitioned
    // cluster stalls requests rather than losing them.
    int best = -1;
    for (int r = 0; r < cluster_.NumReplicas(); ++r) {
      if (cluster_.IsPartitioned(r)) continue;
      if (best == -1 || view.loads[static_cast<std::size_t>(r)] <
                            view.loads[static_cast<std::size_t>(best)]) {
        best = r;
      }
    }
    if (best != -1) {
      replica = best;
      if (metric_failovers_ != nullptr) metric_failovers_->Increment();
    }
  }
  const bool failed_over = replica != selected;
  cluster_.RangeRead(request.range_start, request.range_count, replica,
                     [failed_over, done = std::move(done)](ReadResult result) {
                       result.failed_over = failed_over;
                       done(std::move(result));
                     });
}

void ReadExecutor::EnableResilience(
    const resilience::ResilienceConfig& config, Rng rng,
    std::function<SensitivityClass(const DbRequest&)> classify) {
  resilience_enabled_ = true;
  resil_config_ = config;
  classify_ = std::move(classify);
  retry_.emplace(config.retry, rng);
  effective_hedge_fraction_ = config.hedge.max_hedge_fraction;
  effective_target_load_ = config.hedge.max_target_load;
  model_driven_ = config.hedge.enabled &&
                  config.hedge.mode == resilience::HedgeMode::kModelDriven;
  if (model_driven_) {
    const resilience::CloningModelConfig& model = config.hedge.model;
    cloning_model_.emplace(model);  // Validates the knobs.
    service_window_.emplace(model.target_buckets, model.max_span_ms);
    next_model_recompute_ms_ = cluster_.loop().Now() + model.window_ms;
    util_window_start_ms_ = cluster_.loop().Now();
    busy_at_window_start_ms_ = ClusterBusyServerMs(util_window_start_ms_);
  }
  breakers_.clear();
  slowness_.clear();
  breaker_spans_.resize(static_cast<std::size_t>(cluster_.NumReplicas()));
  for (int r = 0; r < cluster_.NumReplicas(); ++r) {
    breakers_.emplace_back(config.breaker);
    slowness_.emplace_back(config.breaker);
    breakers_.back().SetTransitionHook(
        [this, r](resilience::CircuitBreaker::State from,
                  resilience::CircuitBreaker::State to, double) {
          if (metric_breaker_transitions_ != nullptr) {
            metric_breaker_transitions_->Increment();
          }
          if (tracer_ == nullptr) return;
          auto& span = breaker_spans_[static_cast<std::size_t>(r)];
          if (to == resilience::CircuitBreaker::State::kOpen) {
            span = tracer_->StartSpan("resilience.db.replica" +
                                      std::to_string(r) + ".open");
          } else if (from == resilience::CircuitBreaker::State::kOpen) {
            span.End();
          }
        });
  }
}

void ReadExecutor::AttachResilienceMetrics(obs::MetricsRegistry& registry,
                                           obs::Tracer* tracer) {
  metric_retries_ = &registry.AddCounter("db.resilience.retries");
  metric_retries_exhausted_ =
      &registry.AddCounter("db.resilience.retries_exhausted");
  metric_hedges_ = &registry.AddCounter("db.resilience.hedges");
  metric_hedge_wins_ = &registry.AddCounter("db.resilience.hedge_wins");
  metric_hedge_cancels_ = &registry.AddCounter("db.resilience.hedge_cancels");
  metric_breaker_transitions_ =
      &registry.AddCounter("db.resilience.breaker_transitions");
  if (model_driven_) {
    metric_model_recomputes_ =
        &registry.AddCounter("db.resilience.model.recomputes");
    metric_model_fraction_ =
        &registry.AddGauge("db.resilience.model.hedge_fraction");
    metric_model_target_load_ =
        &registry.AddGauge("db.resilience.model.target_load");
    metric_model_gain_ =
        &registry.AddGauge("db.resilience.model.predicted_gain_ms");
  }
  tracer_ = tracer;
}

void ReadExecutor::MaybeRecomputeBudgets(double now_ms) {
  if (!model_driven_) return;
  const resilience::CloningModelConfig& model = resil_config_.hedge.model;
  while (now_ms >= next_model_recompute_ms_) {
    next_model_recompute_ms_ += model.window_ms;
    // Thin windows (cold start, lulls) keep accumulating into the same
    // summary instead of deriving gates from noise; the previous gates —
    // the static config at cold start — stay in force.
    const double elapsed_ms = now_ms - util_window_start_ms_;
    if (elapsed_ms <= 0.0 ||
        service_window_->sample_count() <
            static_cast<std::size_t>(model.min_samples)) {
      continue;
    }
    // Busy-period utilization: the replicas' exact ∫ in_service dt over the
    // window, divided by the servable capacity (capacity knee × replicas ×
    // elapsed time). This is the rho0 the PS model is defined over; the
    // arrival-sampled load mean it replaces conflated "load seen by
    // arrivals" with "time-average load" and mis-gated the hedge budget
    // whenever arrivals bunched onto busy periods.
    const double knee = cluster_.params().capacity *
                        static_cast<double>(cluster_.NumReplicas());
    const double busy_now_ms = ClusterBusyServerMs(now_ms);
    const double utilization =
        knee > 0.0
            ? (busy_now_ms - busy_at_window_start_ms_) / (elapsed_ms * knee)
            : 0.0;
    last_prediction_ = cloning_model_->Predict(*service_window_, utilization);
    // The static knobs are the operator's floor. The PS model assumes
    // synchronized full cloning, so it undervalues the delay-triggered
    // hedge path (which clones only stragglers, at a fraction of the
    // modeled cost, and only into replicas the target-load gate already
    // certifies as near-idle — the meltdown feedback loop is bounded
    // before the model ever runs). Where the model predicts a significant
    // gain the budget opens up to the derived gates; where it predicts
    // none — or one inside its own error bar (min_gain_fraction) — the
    // static gates stay in force rather than closing a rescue path the
    // model cannot see.
    if (last_prediction_.max_hedge_fraction > 0.0 &&
        last_prediction_.predicted_gain_ms >
            model.min_gain_fraction * last_prediction_.base_response_ms) {
      effective_hedge_fraction_ =
          std::max(last_prediction_.max_hedge_fraction,
                   resil_config_.hedge.max_hedge_fraction);
      effective_target_load_ = std::max(last_prediction_.max_target_load,
                                        resil_config_.hedge.max_target_load);
    } else {
      effective_hedge_fraction_ = resil_config_.hedge.max_hedge_fraction;
      effective_target_load_ = resil_config_.hedge.max_target_load;
    }
    ++resil_stats_.model_recomputes;
    if (metric_model_recomputes_ != nullptr) {
      metric_model_recomputes_->Increment();
      metric_model_fraction_->Set(effective_hedge_fraction_);
      metric_model_target_load_->Set(effective_target_load_);
      metric_model_gain_->Set(last_prediction_.predicted_gain_ms);
    }
    service_window_.emplace(model.target_buckets, model.max_span_ms);
    util_window_start_ms_ = now_ms;
    busy_at_window_start_ms_ = busy_now_ms;
  }
}

double ReadExecutor::ClusterBusyServerMs(double now_ms) const {
  double total = 0.0;
  const Cluster& cluster = cluster_;
  for (int r = 0; r < cluster.NumReplicas(); ++r) {
    total += cluster.replica(r).server().BusyServerMs(now_ms);
  }
  return total;
}

std::vector<ReplicaResilienceSnapshot> ReadExecutor::SnapshotResilience(
    double now_ms) const {
  std::vector<ReplicaResilienceSnapshot> snaps;
  if (!resilience_enabled_) return snaps;
  const ClusterView view = cluster_.View();
  const double capacity = cluster_.params().capacity;
  const double budget =
      effective_hedge_fraction_ * static_cast<double>(primary_reads_) -
      static_cast<double>(resil_stats_.hedges_issued);
  const double budget_remaining = budget > 0.0 ? budget : 0.0;
  snaps.reserve(static_cast<std::size_t>(cluster_.NumReplicas()));
  for (int r = 0; r < cluster_.NumReplicas(); ++r) {
    ReplicaResilienceSnapshot snap;
    const auto idx = static_cast<std::size_t>(r);
    snap.utilization = capacity > 0.0 ? view.loads[idx] / capacity : 0.0;
    if (model_driven_ && last_prediction_.mean_service_ms > 0.0) {
      snap.predicted_gain_ms =
          cloning_model_
              ->Predict(last_prediction_.mean_service_ms,
                        last_prediction_.min_of_two_ms, snap.utilization)
              .predicted_gain_ms;
    }
    const bool rejecting =
        !breakers_.empty() && !breakers_[idx].WouldAllow(now_ms);
    // A rejecting replica is still fine for placement when the hedge path
    // can rescue its sensitive reads: a positive predicted cloning gain and
    // budget headroom mean every read routed there gets a zero-delay clone.
    // Static mode has no model, so it never reports un-rescuable (the
    // placement penalty stays a model-driven co-design).
    snap.rescuable = !rejecting ||
                     (model_driven_ && snap.predicted_gain_ms > 0.0 &&
                      budget_remaining >= 1.0);
    if (!slowness_.empty() && slowness_[idx].baseline_ms() > 0.0) {
      const double excess =
          view.recent_delay_ms[idx] - slowness_[idx].baseline_ms();
      snap.excess_delay_ms = excess > 0.0 ? excess : 0.0;
    }
    snaps.push_back(snap);
  }
  return snaps;
}

resilience::BreakerStats ReadExecutor::TotalBreakerStats() const {
  resilience::BreakerStats total;
  for (const auto& breaker : breakers_) {
    total.opens += breaker.stats().opens;
    total.half_opens += breaker.stats().half_opens;
    total.closes += breaker.stats().closes;
    total.rejections += breaker.stats().rejections;
  }
  return total;
}

bool ReadExecutor::RouteAllowed(int replica, double now_ms) {
  if (cluster_.IsPartitioned(replica)) return false;
  if (breakers_.empty()) return true;
  return breakers_[static_cast<std::size_t>(replica)].AllowRequest(now_ms);
}

int ReadExecutor::BestAvailable(const ClusterView& view, double now_ms,
                                int exclude) const {
  int best = -1;
  for (int r = 0; r < cluster_.NumReplicas(); ++r) {
    if (r == exclude) continue;
    if (cluster_.IsPartitioned(r)) continue;
    if (!breakers_.empty() &&
        !breakers_[static_cast<std::size_t>(r)].WouldAllow(now_ms)) {
      continue;
    }
    if (best == -1 || view.loads[static_cast<std::size_t>(r)] <
                          view.loads[static_cast<std::size_t>(best)]) {
      best = r;
    }
  }
  return best;
}

void ReadExecutor::RecordBreakerOutcome(int replica, const JobTiming& timing) {
  if (breakers_.empty()) return;
  auto& breaker = breakers_[static_cast<std::size_t>(replica)];
  const double now = cluster_.loop().Now();
  if (slowness_[static_cast<std::size_t>(replica)].RecordAndClassify(
          timing.TotalDelayMs())) {
    breaker.RecordFailure(now);
  } else {
    breaker.RecordSuccess(now);
  }
}

void ReadExecutor::IssueWithRetries(const DbRequest& request,
                                    std::function<void(ReadResult)> done,
                                    int failures, double first_start_ms) {
  EventLoop& loop = cluster_.loop();
  const double now = loop.Now();
  MaybeRecomputeBudgets(now);
  const ClusterView view = cluster_.View();
  const int selected = selector_->SelectReplica(request, view);
  if (!cluster_.IsPartitioned(selected)) {
    // Reachable: the QoE-aware selection always stands. A breaker never
    // overrides the primary route — wholesale rerouting a replica's share
    // onto survivors that run near their capacity knee melts the cluster,
    // and the controller already re-places traffic on its update cycle.
    // Instead an open breaker redirects the hedge budget: a sensitive
    // request headed into a known-bad replica is cloned immediately (zero
    // hedge delay) rather than after its class delay, still subject to the
    // budget and the idle-capacity gate.
    const bool breaker_ok = RouteAllowed(selected, now);
    auto state = std::make_shared<ReadState>();
    state->done = std::move(done);
    IssueRead(request, selected, selected, /*is_hedge=*/false, state);
    if (resil_config_.hedge.enabled && request.hedge_delay_ms > 0.0 &&
        cluster_.NumReplicas() > 1) {
      const SensitivityClass cls =
          classify_ ? classify_(request) : SensitivityClass::kSensitive;
      const bool rescue = !breaker_ok && cls == SensitivityClass::kSensitive;
      ScheduleHedge(request, selected, selected, state,
                    rescue ? 0.0 : request.hedge_delay_ms);
    }
    return;
  }
  // The selected replica is partitioned: fail over to the best available
  // replica (breaker-aware, least-loaded)...
  const int best = BestAvailable(view, now, selected);
  int replica = best != -1 && RouteAllowed(best, now) ? best : -1;
  if (replica == -1) {
    // ...or, when breakers are open on every reachable replica, to the
    // least-loaded reachable one regardless: backing off would only stack
    // latency onto an already-slow cluster (a retry storm). Backoff is
    // reserved for true unavailability (every replica partitioned), where
    // waiting out the fault window genuinely helps.
    for (int r = 0; r < cluster_.NumReplicas(); ++r) {
      if (cluster_.IsPartitioned(r)) continue;
      if (replica == -1 || view.loads[static_cast<std::size_t>(r)] <
                               view.loads[static_cast<std::size_t>(replica)]) {
        replica = r;
      }
    }
  }
  if (replica != -1) {
    if (metric_failovers_ != nullptr) metric_failovers_->Increment();
    auto state = std::make_shared<ReadState>();
    state->done = std::move(done);
    IssueRead(request, replica, selected, /*is_hedge=*/false, state);
    if (resil_config_.hedge.enabled && request.hedge_delay_ms > 0.0 &&
        cluster_.NumReplicas() > 1) {
      ScheduleHedge(request, replica, selected, state,
                    request.hedge_delay_ms);
    }
    return;
  }
  // Nothing reachable: ask the retry policy for a delayed re-selection.
  const SensitivityClass cls =
      classify_ ? classify_(request) : SensitivityClass::kSensitive;
  const std::optional<double> backoff =
      retry_->NextBackoffMs(failures + 1, now - first_start_ms, cls);
  if (backoff.has_value()) {
    ++resil_stats_.retries;
    if (metric_retries_ != nullptr) metric_retries_->Increment();
    loop.ScheduleAfter(*backoff, [this, request, done = std::move(done),
                                  failures, first_start_ms]() mutable {
      IssueWithRetries(request, std::move(done), failures + 1,
                       first_start_ms);
    });
    return;
  }
  // Budget/deadline/attempts exhausted: serve via the selected replica
  // anyway — a fully unavailable cluster stalls requests, never loses
  // them (same semantics as the non-resilient path).
  ++resil_stats_.retries_exhausted;
  if (metric_retries_exhausted_ != nullptr) {
    metric_retries_exhausted_->Increment();
  }
  auto state = std::make_shared<ReadState>();
  state->done = std::move(done);
  IssueRead(request, selected, selected, /*is_hedge=*/false, state);
}

void ReadExecutor::ScheduleHedge(const DbRequest& request, int primary,
                                 int selected,
                                 std::shared_ptr<ReadState> state,
                                 double delay_ms) {
  state->hedge_timer = cluster_.loop().ScheduleAfter(
      delay_ms,
      [this, request, primary, selected, state]() {
        state->hedge_timer = 0;
        if (state->completed) return;
        // Hedge budget: a clone is real load and the cluster runs near its
        // knee, so hedging is capped at a fraction of primary reads to keep
        // added load from feeding back into more slow reads (and thus more
        // hedges). Counter comparison only — bit-reproducible.
        if (static_cast<double>(resil_stats_.hedges_issued) >=
            effective_hedge_fraction_ *
                static_cast<double>(primary_reads_)) {
          return;
        }
        const double now = cluster_.loop().Now();
        const ClusterView view = cluster_.View();
        const int best = BestAvailable(view, now, primary);
        if (best == -1) return;
        // Hedge only into idle capacity: a clone on a busy replica slows
        // every request already queued there for one tail-shaving win. In
        // kModelDriven mode both this gate and the budget above are the
        // cloning model's per-window derivations rather than the static
        // knobs (docs/RESILIENCE.md).
        if (view.loads[static_cast<std::size_t>(best)] >
            effective_target_load_ *
                cluster_.params().capacity) {
          return;
        }
        if (!RouteAllowed(best, now)) return;
        ++resil_stats_.hedges_issued;
        if (metric_hedges_ != nullptr) metric_hedges_->Increment();
        IssueRead(request, best, selected, /*is_hedge=*/true, state);
      });
}

void ReadExecutor::IssueRead(const DbRequest& request, int replica,
                             int selected, bool is_hedge,
                             std::shared_ptr<ReadState> state) {
  if (!is_hedge) ++primary_reads_;
  // The model's service-time summary is fed from the sensitive class only:
  // that is the class the hedge budget rescues, and the E2E placement
  // deliberately serves insensitive traffic from a slow sacrificial
  // replica whose service times would masquerade as a heavy tail and talk
  // the model into hedging against intentional slowness.
  const bool model_sample =
      model_driven_ &&
      (classify_ ? classify_(request) : SensitivityClass::kSensitive) ==
          SensitivityClass::kSensitive;
  cluster_.RangeRead(
      request.range_start, request.range_count, replica,
      [this, replica, selected, is_hedge, model_sample,
       state = std::move(state)](ReadResult result) {
        if (model_sample) {
          // PS service requirement: the service delay alone (queueing is
          // what the model predicts, not what it consumes as input).
          service_window_->Add(result.timing.ServiceDelayMs());
        }
        RecordBreakerOutcome(replica, result.timing);
        if (state->completed) {
          // Loser of a hedged pair: the other read already served the
          // request, so this response is discarded (and accounted).
          ++resil_stats_.hedges_cancelled;
          if (metric_hedge_cancels_ != nullptr) {
            metric_hedge_cancels_->Increment();
          }
          return;
        }
        state->completed = true;
        if (state->hedge_timer != 0) {
          // The hedge never fired; one response, nothing to discard.
          (void)cluster_.loop().Cancel(state->hedge_timer);
          state->hedge_timer = 0;
        }
        if (is_hedge) {
          ++resil_stats_.hedges_won;
          if (metric_hedge_wins_ != nullptr) metric_hedge_wins_->Increment();
        }
        result.failed_over = replica != selected;
        state->done(std::move(result));
      });
}

}  // namespace e2e::db
