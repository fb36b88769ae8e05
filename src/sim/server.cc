#include "sim/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace e2e {

SimServer::SimServer(std::string name, EventLoop& loop, int concurrency,
                     ServiceTimeFn service_time, Rng rng)
    : name_(std::move(name)),
      loop_(loop),
      concurrency_(concurrency),
      service_time_(std::move(service_time)),
      rng_(rng) {
  if (concurrency_ < 1) {
    throw std::invalid_argument("SimServer: concurrency < 1");
  }
  if (!service_time_) {
    throw std::invalid_argument("SimServer: no service-time function");
  }
}

void SimServer::Submit(Completion done) {
  if (!done) {
    throw std::invalid_argument("SimServer::Submit: empty completion");
  }
  queue_.push_back(Pending{std::move(done), loop_.Now()});
  TryStart();
}

void SimServer::SetExtraServiceDelayMs(double extra_ms) {
  if (!std::isfinite(extra_ms) || extra_ms < 0.0) {
    throw std::invalid_argument(
        "SimServer::SetExtraServiceDelayMs: extra_ms not finite and >= 0");
  }
  extra_service_delay_ms_ = extra_ms;
}

void SimServer::AccumulateBusy() {
  const double now = loop_.Now();
  busy_ms_integral_ +=
      static_cast<double>(in_service_) * (now - busy_last_update_ms_);
  busy_last_update_ms_ = now;
}

void SimServer::TryStart() {
  while (in_service_ < concurrency_ && !queue_.empty()) {
    Pending job = std::move(queue_.front());
    queue_.pop_front();
    AccumulateBusy();
    ++in_service_;
    // Contention signal: jobs being served concurrently (including this
    // one). Queue depth deliberately excluded — otherwise service slowdown
    // and queue growth feed each other into a metastable collapse that no
    // real server exhibits; waiting requests cost queueing delay instead.
    const double service_ms =
        std::max(0.0, service_time_(in_service_, rng_)) +
        extra_service_delay_ms_;
    JobTiming timing;
    timing.enqueue_ms = job.enqueue_ms;
    timing.start_ms = loop_.Now();
    timing.finish_ms = loop_.Now() + service_ms;
    if (free_slots_.empty()) {
      free_slots_.push_back(in_service_slots_.size());
      in_service_slots_.emplace_back();
    }
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    in_service_slots_[slot] = InService{std::move(job.done), timing};
    loop_.Schedule(timing.finish_ms, [this, slot]() { Complete(slot); });
  }
}

void SimServer::Complete(std::size_t slot) {
  // Moved out first: `done` may submit, which can reuse or grow the slots.
  const InService job = std::move(in_service_slots_[slot]);
  free_slots_.push_back(slot);
  AccumulateBusy();
  --in_service_;
  ++completed_;
  total_stats_.Add(job.timing.TotalDelayMs());
  service_stats_.Add(job.timing.ServiceDelayMs());
  job.done(job.timing);
  TryStart();
}

ServiceTimeFn MakeConvexLoadProfile(double base_ms, double capacity,
                                    double alpha, double beta,
                                    double jitter_sigma) {
  // NaN passes a plain `<= 0.0` guard, and a NaN service time becomes 0 ms
  // in TryStart's std::max, so non-finite values are rejected here.
  if (!std::isfinite(base_ms) || base_ms <= 0.0) {
    throw std::invalid_argument(
        "MakeConvexLoadProfile: base_ms not finite and > 0");
  }
  if (!std::isfinite(capacity) || capacity <= 0.0) {
    throw std::invalid_argument(
        "MakeConvexLoadProfile: capacity not finite and > 0");
  }
  // The inflation 1 + alpha * u^beta must stay >= 0 for every utilization u
  // in (0, 1]: alpha < -1 drives it negative near saturation, and beta < 0
  // (u^beta > 1) does so at low load for any alpha < 0 (and is infinite at
  // u = 0). TryStart's std::max would turn a negative time into a 0-ms
  // service, silently.
  if (!std::isfinite(alpha) || alpha < -1.0) {
    throw std::invalid_argument(
        "MakeConvexLoadProfile: alpha not finite and >= -1");
  }
  if (!std::isfinite(beta) || beta < 0.0) {
    throw std::invalid_argument(
        "MakeConvexLoadProfile: beta not finite and >= 0");
  }
  if (!std::isfinite(jitter_sigma) || jitter_sigma < 0.0) {
    throw std::invalid_argument(
        "MakeConvexLoadProfile: jitter_sigma not finite and >= 0");
  }
  return [=](int in_service, Rng& rng) {
    // Contention saturates at `capacity` concurrent jobs: a fully busy
    // server serves at base * (1 + alpha); overload beyond that shows up
    // as queueing delay, matching real servers.
    const double utilization = std::min(
        1.0, std::max(0.0, static_cast<double>(in_service)) / capacity);
    const double inflation = 1.0 + alpha * std::pow(utilization, beta);
    // Zero jitter draws nothing: std::normal_distribution requires a
    // positive stddev.
    const double jitter =
        jitter_sigma == 0.0
            ? 1.0
            : std::exp(rng.Normal(-0.5 * jitter_sigma * jitter_sigma,
                                  jitter_sigma));
    return base_ms * inflation * jitter;
  };
}

}  // namespace e2e
