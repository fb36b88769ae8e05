// Shared experiment metric types.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/controller.h"
#include "fault/plan.h"
#include "obs/export.h"
#include "util/types.h"

namespace e2e {

/// How a request left the testbed. Completed and failed-over requests were
/// served (failed-over ones were rerouted around a partitioned replica or
/// won by a hedged clone); dropped requests were lost to an injected broker
/// fault; shed requests were refused by QoE-aware admission control under
/// overload; abandoned requests belong to sessions whose user quit after
/// total delay crossed their patience threshold (qoe/abandonment.h).
/// Together the five statuses account for every arrival — the conservation
/// invariant the fault, resilience, and objective property tests assert.
enum class RequestStatus : std::uint8_t {
  kCompleted = 0,
  kFailedOver = 1,
  kDropped = 2,
  kShed = 3,
  kAbandoned = 4,
};

/// Per-request outcome of an experiment run.
struct RequestOutcome {
  RequestId id = 0;
  double arrival_ms = 0.0;        ///< Testbed arrival time.
  DelayMs external_delay_ms = 0.0;
  DelayMs server_delay_ms = 0.0;  ///< Measured on the testbed.
  double qoe = 0.0;               ///< Q(external + server).
  int decision = -1;              ///< Replica / priority chosen (-1 default).
  RequestStatus status = RequestStatus::kCompleted;

  bool Served() const {
    return status == RequestStatus::kCompleted ||
           status == RequestStatus::kFailedOver;
  }
};

/// Resilience-layer counters for one run (docs/RESILIENCE.md). All zero
/// when no mechanism was enabled; serialized as the `resil` line so two
/// identical-seed runs must agree on every mitigation decision, not just
/// the outcomes.
struct ResilienceStats {
  std::uint64_t retries = 0;            ///< Backoff retries granted.
  std::uint64_t retries_exhausted = 0;  ///< Retry denials.
  std::uint64_t hedges_issued = 0;      ///< Hedged clone reads sent.
  std::uint64_t hedges_won = 0;         ///< Clones that beat the primary.
  std::uint64_t hedges_cancelled = 0;   ///< Loser responses discarded.
  std::uint64_t shed = 0;               ///< Requests refused by admission.
  std::uint64_t downgraded = 0;         ///< Requests demoted by admission.
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_rejections = 0;
  /// Cloning-model windows that re-derived the hedge gates (the db
  /// testbed in HedgeMode::kModelDriven only; serialized only when non-zero
  /// so static-mode runs keep their historical byte stream).
  std::uint64_t model_recomputes = 0;
};

/// Aggregate result of one experiment run.
struct ExperimentResult {
  std::vector<RequestOutcome> outcomes;
  double mean_qoe = 0.0;              ///< Over served requests.
  double mean_server_delay_ms = 0.0;  ///< Over served requests.
  double throughput_rps = 0.0;
  ControllerStats controller_stats;

  /// Requests the experiment offered (the replay schedule length). The
  /// experiment runners set this; Finalize() defaults it to the outcome
  /// count for hand-built results.
  std::uint64_t arrivals = 0;
  /// Outcome counts by status, computed by Finalize().
  std::uint64_t completed = 0;
  std::uint64_t failed_over = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  /// Requests whose session abandoned (zero unless an abandonment model
  /// was enabled; serialized only when non-zero so stock results stay
  /// byte-identical).
  std::uint64_t abandoned = 0;

  /// Mitigation-decision counters (zeros for resilience-off runs).
  ResilienceStats resilience;

  /// Fault transitions applied during the run (fault::FaultInjector).
  std::vector<fault::InjectedFault> injected_faults;

  /// Virtual service busy time across all servers (ms) — the testbed's own
  /// resource consumption, for overhead comparisons (Fig. 16).
  double service_busy_ms = 0.0;

  /// Deterministic telemetry captured during the run (empty unless the
  /// experiment ran with `collect_telemetry`). Exported separately via its
  /// own schema-versioned writers, not by Serialize().
  obs::TelemetrySnapshot telemetry;

  /// Recomputes aggregate fields from `outcomes`.
  void Finalize();

  /// Deterministic byte-exact serialization (hexfloat doubles) of the
  /// outcomes, aggregates, controller budget stats, and injected faults,
  /// headed by obs::kResultSchemaLine. Two runs are bit-identical iff
  /// their serializations compare equal — the golden determinism tests
  /// rely on this. The controller stats line is only reproducible when the
  /// experiment profiled against the virtual clock (the default);
  /// `profile_real_clock` runs trade that away.
  [[nodiscard]] std::string Serialize() const;
};

/// Relative QoE gain of `treatment` over `baseline` in percent:
/// (Q_t - Q_b) / Q_b * 100 (§7.1's metric).
double QoeGainPercent(double baseline_mean_qoe, double treatment_mean_qoe);

/// Per-request QoE values of a result.
std::vector<double> QoeValues(std::span<const RequestOutcome> outcomes);

}  // namespace e2e
