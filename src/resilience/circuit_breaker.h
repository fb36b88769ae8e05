// Failure-rate-windowed circuit breaker (docs/RESILIENCE.md).
//
// State machine on virtual time (the caller passes `now_ms` from the event
// loop):
//
//   closed ──(window failure rate >= threshold)──> open
//   open ──(open_ms cool-down elapsed)──> half-open
//   half-open ──(half_open_probes consecutive successes)──> closed
//   half-open ──(any probe failure)──> open
//
// Half-open admits at most `half_open_probes` concurrent probes; further
// requests are rejected until a probe outcome frees a slot. Outcomes that
// arrive in half-open with no probe outstanding belong to requests issued
// before the breaker opened — they are ignored, so a stale slow response
// racing the probes can neither reopen the breaker nor count toward
// closing it.
//
// No RNG anywhere: transitions are a pure function of the recorded
// outcomes and their times, so breaker decisions replay bit-identically.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "resilience/config.h"

namespace e2e::resilience {

/// Counters mirrored into telemetry by the owners (ReadExecutor, broker
/// experiment).
struct BreakerStats {
  std::uint64_t opens = 0;
  std::uint64_t half_opens = 0;
  std::uint64_t closes = 0;
  std::uint64_t rejections = 0;  ///< AllowRequest() refusals while open.
};

/// Decides whether one operation's delay counts as a breaker failure,
/// adapting to the target's own healthy pace: slow means exceeding
/// max(BreakerConfig::slow_ms, slow_factor * baseline), where the baseline
/// is an EWMA over the target's non-slow delays. The E2E placement makes
/// some targets slow on purpose (a sacrificial replica, a low-priority
/// queue); a fixed threshold would open their breakers on healthy traffic
/// and reroute against the policy. Slow samples never update the baseline,
/// so a sustained fault cannot raise its own trip point. Pure arithmetic on
/// the recorded delays — bit-reproducible.
class SlownessTracker {
 public:
  explicit SlownessTracker(const BreakerConfig& config)
      : floor_ms_(config.slow_ms), factor_(config.slow_factor) {}

  /// Classifies `delay_ms` against the current threshold, then folds it
  /// into the baseline when it was not slow. Returns true when the delay
  /// counts as a failure.
  bool RecordAndClassify(double delay_ms) {
    const bool slow = delay_ms > ThresholdMs();
    if (!slow) {
      baseline_ms_ = seeded_ ? (1.0 - kAlpha) * baseline_ms_ + kAlpha * delay_ms
                             : delay_ms;
      seeded_ = true;
    }
    return slow;
  }

  /// Current trip point: the floor until a baseline exists.
  double ThresholdMs() const {
    if (!seeded_) return floor_ms_;
    return floor_ms_ > factor_ * baseline_ms_ ? floor_ms_
                                              : factor_ * baseline_ms_;
  }

  double baseline_ms() const { return baseline_ms_; }

 private:
  static constexpr double kAlpha = 1.0 / 16.0;  // EWMA smoothing.
  double floor_ms_;
  double factor_;
  double baseline_ms_ = 0.0;
  bool seeded_ = false;
};

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// Throws std::invalid_argument on out-of-range knobs.
  explicit CircuitBreaker(const BreakerConfig& config);

  /// True when a request may be routed through this circuit at `now_ms`.
  /// An open breaker whose cool-down elapsed transitions to half-open and
  /// admits the probe; a half-open breaker admits probes only while fewer
  /// than `half_open_probes` are outstanding. Counts a rejection when it
  /// refuses.
  bool AllowRequest(double now_ms);

  /// Side-effect-free availability check (no rejection counting, no
  /// half-open transition): false while open and still cooling down, or
  /// while half-open with every probe slot taken. Used to scan failover
  /// candidates without touching their state.
  bool WouldAllow(double now_ms) const;

  /// Records an operation outcome. `slow` operations (caller compares
  /// against BreakerConfig::slow_ms) count as failures.
  void RecordSuccess(double now_ms);
  void RecordFailure(double now_ms);

  State state() const { return state_; }
  const BreakerStats& stats() const { return stats_; }

  /// Fired on every state transition (old state, new state, time). Used by
  /// owners to meter transitions and manage breaker-open spans.
  using TransitionHook = std::function<void(State, State, double)>;
  void SetTransitionHook(TransitionHook hook) { hook_ = std::move(hook); }

 private:
  void Transition(State to, double now_ms);
  void RecordOutcome(bool failure, double now_ms);

  BreakerConfig config_;
  State state_ = State::kClosed;
  std::deque<bool> window_;  // true = failure; newest at the back.
  int window_failures_ = 0;
  double open_until_ms_ = 0.0;
  int probe_successes_ = 0;
  int probes_inflight_ = 0;  // Admitted half-open probes awaiting outcomes.
  BreakerStats stats_;
  TransitionHook hook_;
};

}  // namespace e2e::resilience
