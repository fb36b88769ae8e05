// The benchmark's workloads (README.md has the rationale for each). Every
// workload drives the libraries through their public headers only, makes
// its inputs from the seed, checks its outputs, and fills one RunReport.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.h"

namespace e2e::perfbench {

/// The workload seed the recorded output values (expected.json) belong to.
inline constexpr std::uint64_t kDefaultSeed = 20190819;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;  ///< Measurement time (set-up and warm-up excluded).
  bool trace = false;     ///< Traced run: per-layer metrics instead.
};

/// Everything one run reports.
struct RunReport {
  /// The output line's metrics: EndToEndMetricNames() for an untraced run,
  /// PerLayerMetricNames() for a traced one.
  Ledger metrics;
  /// Every further figure, under the names README.md lists per workload.
  Ledger detail;
  /// Deterministic output values; at the default seed they must equal
  /// perfbench/expected.json.
  Ledger checks;
  RunOutcome outcome;
};

/// replay_day, controller_live, db_peak.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunReport RunWorkload(const RunOptions& options);

}  // namespace e2e::perfbench
