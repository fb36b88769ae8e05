// Shared helpers for the per-figure benchmark binaries.
//
// Scale substitution (documented in DESIGN.md / EXPERIMENTS.md): the paper
// analyzes full-production traffic (~8 requests/s for page type 1) in 10 s
// windows. The benches generate the trace at kTraceScale of full volume and
// widen analysis windows so each window holds the same number of requests
// as the paper's windows did.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "qoe/qoe_model.h"
#include "qoe/sigmoid_model.h"
#include "testbed/broker_experiment.h"
#include "testbed/counterfactual.h"
#include "testbed/db_experiment.h"
#include "trace/generator.h"
#include "trace/record.h"
#include "util/flags.h"
#include "util/table.h"

namespace e2e::bench {

/// Default trace scale for trace-driven analyses.
inline constexpr double kTraceScale = 0.05;

/// Analysis window replacing the paper's 10 s windows at kTraceScale
/// (holds a comparable request count per window).
inline constexpr double kWindowMs = 120000.0;

/// Fixed seed: every bench is reproducible.
inline constexpr std::uint64_t kSeed = 20190819;  // SIGCOMM'19 opening day.

/// Generates (and memoizes per process) the standard bench trace.
const Trace& StandardTrace(double scale = kTraceScale);

/// The QoE model used to score a page type in the evaluation (§7.2).
const QoeModel& QoeForPage(PageType page);

/// QoeModelSelector over QoeForPage.
QoeModelSelector PageQoeSelector();

/// Prints a bench header: figure id, paper claim, and our setup note.
void PrintHeader(const std::string& figure, const std::string& paper_claim,
                 const std::string& setup);

/// DB-testbed configuration shared by the Fig. 14/15/16/17/18/20 benches:
/// 3 replica groups whose combined knee sits near 100 rps, driven by the
/// 4pm peak-hour slice of page type 1 at a replay speed-up.
DbExperimentConfig StandardDbConfig(DbPolicy policy, double speedup);

/// Broker-testbed configuration shared by the broker benches: a consumer
/// draining one message per 5 ms (paper setting), near saturation at 20x.
BrokerExperimentConfig StandardBrokerConfig(BrokerPolicy policy,
                                            double speedup);

/// The trace slice (page type 1, 16:00-17:00, full scale) the testbed
/// benches replay; memoized per process.
const std::vector<TraceRecord>& TestbedSlice();

/// True when `--metrics_out=PATH` was given. Benches that run experiments
/// use this to switch `common.collect_telemetry` on before the run.
bool TelemetryRequested(const Flags& flags);

/// Parses `--resilience={off,on}` (default off). `on` means the standard
/// mitigation layer (StandardResilience) — benches copy it into
/// `common.resilience` for the runs that should be protected. Exits 2 on
/// any other value.
bool ResilienceRequested(const Flags& flags);

/// The testbeds with a resilience layer.
enum class Testbed { kDb, kBroker };

/// The bench-standard resilience configuration for `testbed`: every
/// mechanism that testbed runs, at the docs/RESILIENCE.md default knobs
/// (db: retries, hedged reads, breakers; broker: retries, breakers,
/// admission).
resilience::ResilienceConfig StandardResilience(Testbed testbed);

/// Writes `result.telemetry` as a sidecar of the `--metrics_out` path with
/// `label` inserted before the extension (`out.txt` + label "db.e2e" ->
/// `out.db.e2e.txt`). Paths ending in `.json` get the JSON encoding;
/// anything else the stable text encoding (docs/OBSERVABILITY.md). No-op
/// when the flag is absent or the run collected no telemetry.
void WriteTelemetrySidecar(const Flags& flags, const std::string& label,
                           const ExperimentResult& result);

/// Calibrated speed-ups at which each testbed operates at the same fraction
/// of its capacity as the paper's deployments did at 20x (the db cluster's
/// knee sits slightly higher relative to the replay rate than the broker's).
inline constexpr double kDbReferenceSpeedup = 24.0;
inline constexpr double kBrokerReferenceSpeedup = 20.0;

}  // namespace e2e::bench
