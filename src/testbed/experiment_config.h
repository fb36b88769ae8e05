// The shared experiment-config core (DESIGN.md "Experiment runners").
//
// Every runner used to duplicate the same block of fields — seed, replay
// speedup, controller config, tick cadence, profiling-clock flag, fault
// plan — with per-runner defaults and subtly diverging doc comments. They
// now share this one struct, embedded by composition as the `common`
// member of each runner config (BrokerExperimentConfig, DbExperimentConfig,
// MultiAgentConfig, MultiServiceConfig), with per-runner defaults supplied
// via designated initializers at the embed site. Call sites address the
// shared knobs as `config.common.seed` etc., so a field that is meaningful
// for every runner is spelled the same way everywhere.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/controller.h"
#include "fault/plan.h"
#include "qoe/abandonment.h"
#include "resilience/config.h"
#include "util/clock.h"

namespace e2e {

/// Fields shared by every experiment runner. Defaults here are the
/// neutral ones; each runner config overrides seed/speedup in its
/// `common` member initializer.
struct ExperimentConfig {
  /// Root seed; every RNG in the run derives from it (bit-reproducible).
  std::uint64_t seed = 0;

  /// Trace replay speed-up ratio (§7.1): inter-arrival gaps and service
  /// times are both divided by it.
  double speedup = 1.0;

  /// Controller maintenance cadence (table recompute interval).
  double tick_interval_ms = 1000.0;

  /// Profile controller budget accounting against the real wall clock
  /// instead of the run's virtual clock. Only the overhead benches
  /// (Fig. 16/17) and the latency-bound integration test set this: a real
  /// clock makes ControllerStats (and thus Serialize()) non-reproducible.
  /// Telemetry stays on the virtual clock either way.
  bool profile_real_clock = false;

  /// Collect deterministic telemetry (src/obs/) for this run. Off by
  /// default: instrumented components then hold no instruments and the
  /// hot paths pay only a never-taken branch.
  bool collect_telemetry = false;

  ControllerConfig controller;

  /// Deterministic fault plan (docs/FAULTS.md); empty = fault-free run.
  /// Which clause kinds a runner supports is runner-specific — see each
  /// runner's header.
  fault::FaultPlan fault_plan;

  /// Mitigation layer (docs/RESILIENCE.md): deadline-aware retries, hedged
  /// replica reads, circuit breaking, and QoE-aware admission control. All
  /// mechanisms default to disabled, in which case runs replay
  /// byte-identically to the pre-resilience testbed.
  resilience::ResilienceConfig resilience;

  /// Session abandonment model (qoe/abandonment.h, docs/OBJECTIVES.md):
  /// when enabled, a session whose total delay exceeds its seeded patience
  /// threshold quits, and its remaining requests are removed from
  /// downstream load instead of being served. Disabled by default, in
  /// which case runs replay byte-identically to the pre-abandonment
  /// testbed.
  AbandonmentConfig abandonment;

  /// Convenience for the runner configs' per-runner defaults.
  static ExperimentConfig WithSeed(std::uint64_t seed, double speedup = 1.0) {
    ExperimentConfig config;
    config.seed = seed;
    config.speedup = speedup;
    return config;
  }
};

/// The clock the controller profiles its budget against: the real clock
/// when `profile_real_clock` is set, else the run's own virtual clock.
inline const Clock* ProfileClock(const ExperimentConfig& config,
                                 const Clock* loop_clock) {
  return config.profile_real_clock
             ? static_cast<const Clock*>(&RealClock::Instance())
             : loop_clock;
}

/// Guard for runners without fault-injection support: fail loudly instead
/// of silently ignoring a plan the caller expected to run.
inline void RequireNoFaultPlan(const ExperimentConfig& config,
                               const char* runner) {
  if (!config.fault_plan.empty()) {
    throw std::invalid_argument(std::string(runner) +
                                ": fault plans are not supported here; use "
                                "RunBrokerExperiment or RunDbExperiment");
  }
}

/// Guard for runners without a resilience layer (docs/RESILIENCE.md): an
/// enabled mechanism throws, naming it, instead of being silently ignored.
inline void RequireNoResilience(const ExperimentConfig& config,
                                const char* runner) {
  const auto reject = [runner](bool enabled, const char* mechanism) {
    if (enabled) {
      throw std::invalid_argument(std::string(runner) + ": resilience." +
                                  mechanism +
                                  " is not supported here; RunDbExperiment "
                                  "runs every mechanism");
    }
  };
  const resilience::ResilienceConfig& r = config.resilience;
  reject(r.retry.enabled, "retry");
  reject(r.hedge.enabled, "hedge");
  reject(r.breaker.enabled, "breaker");
  reject(r.admission.enabled, "admission");
}

/// Guard for runners that model no session quits (qoe/abandonment.h).
inline void RequireNoAbandonment(const ExperimentConfig& config,
                                 const char* runner) {
  if (config.abandonment.enabled) {
    throw std::invalid_argument(std::string(runner) +
                                ": abandonment.enabled is not supported "
                                "here; this runner models no session quits");
  }
}

}  // namespace e2e
