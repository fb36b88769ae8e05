// Resilience-layer configuration (docs/RESILIENCE.md).
//
// One block per mitigation mechanism, all disabled by default so a config
// that never mentions resilience replays byte-identically to the
// pre-resilience testbed. The knobs live inside the shared ExperimentConfig
// (testbed/experiment_config.h) as its `resilience` member; every policy is
// driven by the virtual clock and explicitly forked RNG streams, so runs
// with any combination of mechanisms active stay bit-reproducible.
#pragma once

#include <cstdint>

namespace e2e::resilience {

/// Deadline-aware retries with seeded jittered exponential backoff,
/// budgeted per sensitivity class. Used by broker publishes (re-publish
/// after a fault drop) and db reads (re-select when no replica is
/// reachable).
struct RetryConfig {
  bool enabled = false;
  /// Total attempts per request, including the first (>= 1).
  int max_attempts = 4;
  /// Backoff before retry k (1-based) is base * multiplier^(k-1), capped.
  double base_backoff_ms = 10.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 500.0;
  /// Uniform jitter fraction: the backoff is scaled by a seeded draw from
  /// [1 - jitter, 1 + jitter]. 0 disables jitter.
  double jitter = 0.2;
  /// No retry is issued that would start later than first-attempt time
  /// plus this deadline.
  double deadline_ms = 5000.0;
  /// Retry budget per sensitivity class for the whole run (0 = unlimited).
  /// Spent budget is never refunded, so a burst of failures cannot turn
  /// into an unbounded retry storm.
  std::uint64_t budget_per_class = 0;
};

/// How the hedge gates (`max_hedge_fraction`, `max_target_load`) are
/// chosen.
enum class HedgeMode : std::uint8_t {
  /// The static HedgeConfig values apply for the whole run — byte-identical
  /// to the pre-model behavior (the golden replay regressions pin this).
  kStatic = 0,
  /// A processor-sharing cloning model (resilience/cloning_model.h) derives
  /// both gates per analysis window from the measured utilization and the
  /// empirical service-time distribution, so the hedge budget tracks the
  /// operating point instead of a hand-tuned guess. The static values serve
  /// as the cold-start fallback until a window has enough samples and as
  /// the floor of the derived gates: the model opens the budget further
  /// when cloning is predicted profitable beyond its significance threshold
  /// (CloningModelConfig::min_gain_fraction) and otherwise leaves the static
  /// gates in force — it never closes below the floor.
  kModelDriven = 1,
};

/// Knobs of the processor-sharing cloning predictor (docs/RESILIENCE.md has
/// the derivation). Only read when HedgeConfig::mode == kModelDriven.
struct CloningModelConfig {
  /// Budget recompute cadence in virtual ms: service-time samples and
  /// utilization observations accumulate per window, and the derived gates
  /// apply from the window boundary on.
  double window_ms = 5000.0;
  /// Granularity of the streaming service-time summary (stats/bucketizer.h
  /// — the bucketizer the policy solve buckets with, in its streaming form).
  int target_buckets = 32;
  double max_span_ms = 500.0;
  /// Minimum service-time samples in a window before the model overrides
  /// the previous gates; thinner windows keep the last derived (or static,
  /// at cold start) values.
  int min_samples = 32;
  /// Hard cap on the derived hedge fraction: even when the model predicts
  /// cloning is free, at most this share of primaries is cloned.
  double max_fraction_cap = 0.5;
  /// Grid resolution of the argmin over hedge fractions in
  /// [0, max_fraction_cap].
  int fraction_grid = 64;
  /// Predicted post-hedge utilization must stay below this fraction of the
  /// capacity knee; the derived max_target_load is also clamped to it.
  double stability_margin = 0.9;
  /// The derived gates only replace the static floor when the predicted
  /// gain exceeds this fraction of the predicted base response time —
  /// marginal predictions are inside the model's own error and not worth
  /// doubling load over. In [0, 1).
  double min_gain_fraction = 0.02;
};

/// Hedged replica reads: when the primary read has not completed after the
/// per-class hedge delay, clone it to the next-best reachable replica;
/// first response wins, the loser's response is discarded and counted
/// (conservation stays exact: issued = won outcomes + discarded losers).
struct HedgeConfig {
  bool enabled = false;
  /// Gate selection mode: static knobs (default, byte-identical to the
  /// pre-model runs) or per-window processor-sharing model derivation.
  HedgeMode mode = HedgeMode::kStatic;
  /// Model knobs (kModelDriven only).
  CloningModelConfig model;
  /// Hedge delay for requests in the sensitive class (ms of virtual time
  /// the primary is given before a clone is issued). Must sit above the
  /// healthy service-time tail: the E2E placement deliberately serves
  /// insensitive traffic from a slow sacrificial replica, and hedging
  /// against intentional slowness doubles load for no QoE gain.
  double sensitive_delay_ms = 2500.0;
  /// Hedge delay for the too-fast / too-slow classes (larger: their QoE
  /// gains less from shaving the tail).
  double insensitive_delay_ms = 7500.0;
  /// Hard cap on hedge volume: clones may be issued only while
  /// hedges_issued < max_hedge_fraction * primary reads issued. A hedge is
  /// real load, and the testbeds deliberately run near their capacity knee;
  /// without a budget, added load raises delays past the hedge threshold,
  /// which issues more hedges — a self-sustaining meltdown. The cap bounds
  /// the feedback loop deterministically (pure counter comparison, no RNG).
  double max_hedge_fraction = 0.05;
  /// A clone is only issued when the target replica's load (queued plus in
  /// service) is below this fraction of its capacity knee: hedging into
  /// idle capacity is nearly free, while hedging into a busy replica slows
  /// every request it is already serving.
  double max_target_load = 0.25;
};

/// Per-replica / per-queue circuit breaker: closed -> open on a windowed
/// failure rate, open -> half-open after a cool-down on the event loop,
/// half-open -> closed after a probe streak (any probe failure re-opens).
struct BreakerConfig {
  bool enabled = false;
  /// Sliding window of the most recent outcomes considered.
  int window = 32;
  /// Minimum samples in the window before the breaker may open.
  int min_samples = 8;
  /// Failure rate in [0, 1] at or above which the breaker opens.
  double failure_rate_to_open = 0.5;
  /// Absolute floor below which an operation never counts as slow. Sized
  /// for fault-grade latency only: the db testbed's QoE-aware placement
  /// runs a sacrificial replica whose healthy reads take 1-5 s, and a
  /// breaker that opens on deliberate slowness reroutes traffic against
  /// the policy it is meant to protect.
  double slow_ms = 6000.0;
  /// Relative criterion on top of the floor: an operation counts as slow
  /// only above max(slow_ms, slow_factor * the target's healthy-baseline
  /// delay), where the baseline is an EWMA over non-slow outcomes
  /// (SlownessTracker). A deliberately slow target thus keeps a
  /// proportionally higher trip point, while a fault-grade latency jump
  /// (well beyond anything the target served when healthy) still opens the
  /// breaker.
  double slow_factor = 4.0;
  /// Cool-down in the open state before probing (half-open).
  double open_ms = 2000.0;
  /// Consecutive half-open successes required to close again.
  int half_open_probes = 3;
};

/// QoE-aware admission control at the broker: under overload, shed or
/// downgrade requests in ascending order of the marginal QoE lost by not
/// serving them, using the paper's sensitivity classes (Fig. 3): a request
/// already past the QoE cliff (too slow to matter) forfeits almost nothing
/// when shed; a request far before the cliff (too fast to matter) can
/// absorb queueing, so it is downgraded rather than shed; sensitive
/// requests are always admitted at full priority.
struct AdmissionConfig {
  bool enabled = false;
  /// Total queued messages at or above which too-slow requests are shed.
  int shed_depth = 64;
  /// Total queued messages at or above which too-fast requests are also
  /// downgraded to the lowest priority.
  int downgrade_depth = 128;
};

/// All resilience knobs, embedded in ExperimentConfig as `resilience`.
struct ResilienceConfig {
  RetryConfig retry;
  HedgeConfig hedge;
  BreakerConfig breaker;
  AdmissionConfig admission;

  bool AnyEnabled() const {
    return retry.enabled || hedge.enabled || breaker.enabled ||
           admission.enabled;
  }

  /// Every mechanism enabled at its default tuning (benches, tests).
  static ResilienceConfig AllOn() {
    ResilienceConfig config;
    config.retry.enabled = true;
    config.hedge.enabled = true;
    config.breaker.enabled = true;
    config.admission.enabled = true;
    return config;
  }

  /// AllOn() with the hedge gates derived by the processor-sharing cloning
  /// model instead of the static knobs.
  static ResilienceConfig ModelDriven() {
    ResilienceConfig config = AllOn();
    config.hedge.mode = HedgeMode::kModelDriven;
    return config;
  }
};

}  // namespace e2e::resilience
