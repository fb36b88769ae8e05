#include "core/profiler.h"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/server.h"

namespace e2e {
namespace {

// What one load level contributes to the profile.
struct LevelOutcome {
  DiscreteDistribution delays;
  // True when the level's steady-window delays kept climbing (no steady
  // state).
  bool unstable = false;
};

// Simulates one load level. Pure function of (config, rps, the two RNG
// streams).
LevelOutcome RunLevel(const ProfilerConfig& config, double rps,
                      Rng server_rng, Rng arrival_rng) {
  EventLoop loop;
  SimServer server(
      "profilee", loop, config.concurrency,
      MakeConvexLoadProfile(config.base_service_ms, config.capacity,
                            config.service_alpha, config.service_beta,
                            config.jitter_sigma),
      std::move(server_rng));

  std::vector<double> samples;
  const double mean_gap_ms = 1000.0 / rps;
  // Poisson (exponential-gap) open-loop arrivals across the window.
  double t = arrival_rng.ExponentialMean(mean_gap_ms);
  while (t < config.duration_ms) {
    loop.Schedule(t, [&server, &samples]() {
      server.Submit([&samples](const JobTiming& timing) {
        samples.push_back(timing.TotalDelayMs());
      });
    });
    t += arrival_rng.ExponentialMean(mean_gap_ms);
  }
  loop.Run();

  // Discard the warm-up fifth when the sample count allows it, so
  // transients do not bias the profile.
  std::vector<double> steady;
  if (samples.size() >= 200) {
    steady.assign(
        samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 5),
        samples.end());
  } else {
    steady = samples;
  }
  if (steady.empty()) {
    steady.push_back(config.base_service_ms);
  }

  // Stationarity check: a level whose delays keep climbing through the
  // window has no steady state (the server is overloaded there).
  bool unstable = false;
  if (steady.size() >= 40) {
    const std::size_t half = steady.size() / 2;
    double first = 0.0, second = 0.0;
    for (std::size_t i = 0; i < half; ++i) first += steady[i];
    for (std::size_t i = half; i < steady.size(); ++i) second += steady[i];
    first /= static_cast<double>(half);
    second /= static_cast<double>(steady.size() - half);
    unstable = second > first * 1.4;
  }
  return LevelOutcome{
      DiscreteDistribution::FromSamples(steady, config.distribution_points),
      unstable};
}

}  // namespace

LoadProfile ProfileServerOffline(const ProfilerConfig& config) {
  if (config.levels < 1 || config.max_rps <= 0.0 ||
      config.duration_ms <= 0.0 || config.distribution_points < 1) {
    throw std::invalid_argument("ProfileServerOffline: bad config");
  }
  Rng root(config.seed);
  LoadProfile profile;
  profile.max_rps = config.max_rps;
  for (int level = 1; level <= config.levels; ++level) {
    const double rps = config.max_rps * static_cast<double>(level) /
                       static_cast<double>(config.levels);
    // Rng::Fork advances the parent, so the fork order is part of the
    // profile's bytes; two statements fix it (function arguments are
    // evaluated in an unspecified order).
    Rng server_rng = root.Fork(static_cast<std::uint64_t>(level));
    Rng arrival_rng = root.Fork(1000 + static_cast<std::uint64_t>(level));
    LevelOutcome out = RunLevel(config, rps, std::move(server_rng),
                                std::move(arrival_rng));
    profile.level_rps.push_back(rps);
    profile.delays.push_back(std::move(out.delays));
    // Only the first unstable level can pass this guard (later levels have
    // strictly larger rps), and it backs the ceiling off to the last level
    // before instability showed.
    if (out.unstable && profile.max_stable_rps > rps) {
      const std::size_t count = profile.level_rps.size();
      profile.max_stable_rps =
          count >= 2 ? profile.level_rps[count - 2] : profile.level_rps[0];
    }
  }
  return profile;
}

}  // namespace e2e
