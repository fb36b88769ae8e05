#include "core/controller.h"

#include <cmath>
#include <stdexcept>

#include "util/log.h"

namespace e2e {

Controller::Controller(std::string name, ControllerConfig config,
                       QoeModelPtr qoe,
                       std::shared_ptr<const ServerDelayModel> server_model,
                       std::uint64_t seed, const Clock* clock)
    : name_(std::move(name)),
      config_(config),
      qoe_(std::move(qoe)),
      server_model_(std::move(server_model)),
      external_model_(config.external),
      cache_(config.cache),
      clock_(clock != nullptr ? clock : &VirtualClock::Frozen()),
      rng_(seed) {
  if (qoe_ == nullptr) {
    throw std::invalid_argument("Controller: null QoE model");
  }
  if (server_model_ == nullptr) {
    throw std::invalid_argument("Controller: null server-delay model");
  }
  if (config_.shards < 0) {
    throw std::invalid_argument("Controller: negative shard count");
  }
  if (!std::isfinite(config_.rps_planning_factor) ||
      config_.rps_planning_factor <= 0.0) {
    throw std::invalid_argument(
        "Controller: rps_planning_factor not finite and > 0");
  }
}

void Controller::ObserveArrival(DelayMs external_delay_ms, double now_ms) {
  ++stats_.observations;
  external_model_.Observe(external_delay_ms, now_ms);
}

void Controller::SetDecisionPenalties(std::vector<double> penalties_ms) {
  if (!penalties_ms.empty() &&
      static_cast<int>(penalties_ms.size()) != server_model_->NumDecisions()) {
    throw std::invalid_argument(
        "Controller::SetDecisionPenalties: size != decisions");
  }
  penalties_ms_ = std::move(penalties_ms);
}

void Controller::SetLoadDiscount(double fraction) {
  // Written so NaN fails it too (`load_discount_ > 0.0` would then ignore
  // the setting silently).
  if (!(fraction >= 0.0 && fraction < 1.0)) {
    throw std::invalid_argument(
        "Controller::SetLoadDiscount: fraction outside [0, 1)");
  }
  load_discount_ = fraction;
}

void Controller::AttachTelemetry(obs::MetricsRegistry& registry,
                                 obs::Tracer* tracer,
                                 const std::string& prefix) {
  tracer_ = tracer;
  span_name_ = prefix + ".recompute";
  metric_ticks_ = &registry.AddCounter(prefix + ".ticks");
  metric_recomputes_ = &registry.AddCounter(prefix + ".recomputes");
  metric_decisions_ = &registry.AddCounter(prefix + ".decisions");
  metric_transport_solves_ =
      &registry.AddCounter(prefix + ".policy.transport_solves");
  metric_recompute_us_ = &registry.AddHistogram(
      prefix + ".recompute_us",
      {10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0, 50000.0, 100000.0,
       500000.0});
  metric_staleness_ = &registry.AddHistogram(
      prefix + ".table_staleness_ms",
      {500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0, 100000.0,
       250000.0});
}

bool Controller::Tick(double now_ms) {
  ++stats_.ticks;
  if (metric_ticks_ != nullptr) {
    metric_ticks_->Increment();
    // Decision staleness: how old the serving table is at this tick.
    if (cache_.Get() != nullptr) {
      metric_staleness_->Observe(now_ms - last_install_ms_);
    }
  }
  if (failed_) return false;
  external_model_.MaybeRoll(now_ms);
  if (!external_model_.HasDistribution()) return false;

  double rps = external_model_.PredictedRps(rng_) * config_.rps_planning_factor;
  // Abandonment-aware planning: sessions that quit stop offering load, so
  // the next window carries only the surviving fraction. Guarded so the
  // default (0) keeps the historical multiplication-free code path — and
  // its exact bytes.
  if (load_discount_ > 0.0) rps *= 1.0 - load_discount_;
  if (rps <= 0.0) return false;
  if (!cache_.NeedsRefresh(external_model_.Samples(), rps)) return false;

  // Estimate each sample as the controller would see it (error-injected).
  std::vector<double> estimated;
  estimated.reserve(external_model_.Samples().size());
  for (double c : external_model_.Samples()) {
    estimated.push_back(external_model_.EstimateForRequest(c, rng_));
  }

  obs::Span span;
  if (tracer_ != nullptr) span = tracer_->StartSpan(span_name_);
  const double start_us = clock_->NowMicros();
  PolicyResult result = [&] {
    if (penalties_ms_.empty()) {
      return ComputePolicy(*qoe_, *server_model_, estimated, rps,
                           config_.policy);
    }
    // Placement co-design: solve against the penalty-shifted view of the
    // cluster so weight drifts off replicas resilience cannot rescue.
    const PenalizedServerModel penalized(*server_model_, penalties_ms_);
    return ComputePolicy(*qoe_, penalized, estimated, rps, config_.policy);
  }();
  const double cost_us = clock_->NowMicros() - start_us;
  span.End();
  stats_.total_recompute_wall_us += cost_us;
  ++stats_.recomputes;
  stats_.last_policy_stats = result.stats;
  if (metric_recomputes_ != nullptr) {
    metric_recomputes_->Increment();
    metric_recompute_us_->Observe(cost_us);
    metric_transport_solves_->Increment(
        static_cast<std::uint64_t>(result.stats.transport_solves));
  }

  if (LogEnabled(LogLevel::kDebug)) {
    LogStream log(LogLevel::kDebug, name_);
    log << "t=" << now_ms << " rps=" << rps << " buckets="
        << result.stats.buckets << " expectedQ="
        << result.table.objective_value << " fractions:";
    for (double f : result.table.load_fractions) log << ' ' << f;
  }
  cache_.Install(std::move(result.table),
                 std::vector<double>(external_model_.Samples().begin(),
                                     external_model_.Samples().end()),
                 rps);
  last_install_ms_ = now_ms;
  return true;
}

int Controller::Decide(DelayMs true_external_delay_ms) {
  const DecisionTable* table = cache_.Get();
  if (table == nullptr) return -1;
  const double start_us = clock_->NowMicros();
  const DelayMs estimate =
      external_model_.EstimateForRequest(true_external_delay_ms, rng_);
  const int decision = table->Lookup(estimate);
  stats_.total_lookup_wall_us += clock_->NowMicros() - start_us;
  ++stats_.decisions;
  if (metric_decisions_ != nullptr) metric_decisions_->Increment();
  return decision;
}

void Controller::AdoptStateFrom(const Controller& other) {
  cache_ = other.cache_;
  external_model_ = other.external_model_;
  last_install_ms_ = other.last_install_ms_;
}

}  // namespace e2e
