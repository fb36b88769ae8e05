#include "resilience/circuit_breaker.h"

#include <stdexcept>

namespace e2e::resilience {

CircuitBreaker::CircuitBreaker(const BreakerConfig& config) : config_(config) {
  if (config_.window < 1) {
    throw std::invalid_argument("CircuitBreaker: window < 1");
  }
  if (config_.min_samples < 1 || config_.min_samples > config_.window) {
    throw std::invalid_argument("CircuitBreaker: bad min_samples");
  }
  if (config_.failure_rate_to_open < 0.0 ||
      config_.failure_rate_to_open > 1.0) {
    throw std::invalid_argument("CircuitBreaker: bad failure rate");
  }
  if (config_.open_ms <= 0.0) {
    throw std::invalid_argument("CircuitBreaker: open_ms <= 0");
  }
  if (config_.half_open_probes < 1) {
    throw std::invalid_argument("CircuitBreaker: half_open_probes < 1");
  }
}

void CircuitBreaker::Transition(State to, double now_ms) {
  const State from = state_;
  state_ = to;
  probes_inflight_ = 0;
  switch (to) {
    case State::kOpen:
      ++stats_.opens;
      open_until_ms_ = now_ms + config_.open_ms;
      window_.clear();
      window_failures_ = 0;
      probe_successes_ = 0;
      break;
    case State::kHalfOpen:
      ++stats_.half_opens;
      probe_successes_ = 0;
      break;
    case State::kClosed:
      ++stats_.closes;
      window_.clear();
      window_failures_ = 0;
      break;
  }
  if (hook_) hook_(from, to, now_ms);
}

bool CircuitBreaker::WouldAllow(double now_ms) const {
  if (!config_.enabled) return true;
  if (state_ == State::kOpen) return now_ms >= open_until_ms_;
  if (state_ == State::kHalfOpen) {
    return probes_inflight_ < config_.half_open_probes;
  }
  return true;
}

bool CircuitBreaker::AllowRequest(double now_ms) {
  if (!config_.enabled) return true;
  if (state_ == State::kOpen) {
    if (now_ms >= open_until_ms_) {
      Transition(State::kHalfOpen, now_ms);
      ++probes_inflight_;
      return true;
    }
    ++stats_.rejections;
    return false;
  }
  if (state_ == State::kHalfOpen) {
    // Cap concurrent probes: an unbounded half-open would route a burst of
    // requests (hedges, failover scans) into a replica whose recovery is
    // still one unverified hypothesis.
    if (probes_inflight_ < config_.half_open_probes) {
      ++probes_inflight_;
      return true;
    }
    ++stats_.rejections;
    return false;
  }
  return true;
}

void CircuitBreaker::RecordOutcome(bool failure, double now_ms) {
  if (!config_.enabled) return;
  switch (state_) {
    case State::kOpen:
      // Responses for requests issued before the breaker opened; the open
      // window already reset the sample window, so they are dropped.
      return;
    case State::kHalfOpen:
      // Only admitted probes speak for the recovery hypothesis. An outcome
      // with no probe outstanding belongs to a request issued before the
      // breaker opened; counting it would let a stale slow success reopen
      // (or spuriously close) the breaker under the live probes — the
      // double-transition race the reentry property test pins down.
      if (probes_inflight_ == 0) return;
      --probes_inflight_;
      if (failure) {
        Transition(State::kOpen, now_ms);
      } else if (++probe_successes_ >= config_.half_open_probes) {
        Transition(State::kClosed, now_ms);
      }
      return;
    case State::kClosed:
      window_.push_back(failure);
      if (failure) ++window_failures_;
      if (static_cast<int>(window_.size()) > config_.window) {
        if (window_.front()) --window_failures_;
        window_.pop_front();
      }
      if (static_cast<int>(window_.size()) >= config_.min_samples &&
          static_cast<double>(window_failures_) >=
              config_.failure_rate_to_open *
                  static_cast<double>(window_.size())) {
        Transition(State::kOpen, now_ms);
      }
      return;
  }
}

void CircuitBreaker::RecordSuccess(double now_ms) {
  RecordOutcome(false, now_ms);
}

void CircuitBreaker::RecordFailure(double now_ms) {
  RecordOutcome(true, now_ms);
}

}  // namespace e2e::resilience
