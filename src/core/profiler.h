// Offline server profiling (§6): build a LoadProfile for a server by
// actually driving a simulated instance at each load level and recording
// the delay distribution it produces — the reproduction of "we measure the
// processing delays of one server under different input loads: {5%, 10%,
// ..., 100%} of the maximum number of requests per second".
#pragma once

#include <cstdint>

#include "core/server_delay_model.h"

namespace e2e {

/// Configuration of one profiling run.
struct ProfilerConfig {
  /// Service-time curve of the server being profiled (matches the db
  /// ClusterParams of the system the profile will model).
  double base_service_ms = 40.0;
  double capacity = 8.0;
  double service_alpha = 1.0;
  double service_beta = 1.6;
  double jitter_sigma = 0.35;
  int concurrency = 8;

  /// Load grid: `levels` levels at {1/levels, ..., 1.0} * max_rps.
  double max_rps = 120.0;
  int levels = 20;

  /// Virtual time simulated per level (longer = smoother distributions).
  double duration_ms = 60000.0;

  /// Number of quantile points kept per level's distribution.
  int distribution_points = 12;

  std::uint64_t seed = 7;
};

/// Runs the profiling experiment and returns the measured profile.
/// Deterministic in the seed.
LoadProfile ProfileServerOffline(const ProfilerConfig& config);

}  // namespace e2e
