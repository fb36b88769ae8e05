// docs/OBJECTIVES.md figures: what each pluggable policy objective does to
// the replay-level QoE *distribution*, and how the session-abandonment
// model responds to load.
//
//  * QoE CDF per objective: the peak-hour slice replayed through the
//    sharded controller once per built-in objective; the table reports the
//    mean and the low percentiles of normalized served QoE (from
//    ShardedReplayResult::qoe_histogram) plus its dispersion. The variance
//    and fairness objectives visibly tighten the spread at a mean cost; on
//    this trace the bottom decile is dominated by users whose *external*
//    delay is already past the QoE cliff, so the tail objectives shift the
//    body of the CDF more than its floor (tests/objective_test.cc crafts
//    the scenario where p10 is genuinely rescuable and asserts the rescue).
//  * Abandonment rate vs load: the same day with the abandonment model
//    enabled, sweeping the controller's planned-load factor; the rate is
//    monotone non-decreasing in load (the property the objective test tier
//    asserts).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "qoe/objective.h"
#include "testbed/sharded_replay.h"
#include "util/table.h"

namespace {

using namespace e2e;
using namespace e2e::bench;

ShardedReplayConfig ReplayConfig(double window_ms, int shards) {
  ShardedReplayConfig config;
  config.common.seed = kSeed;
  config.common.controller.external.window_ms = window_ms;
  config.common.controller.shards = shards;
  config.common.controller.policy.target_buckets = 8;
  config.common.controller.policy.max_bucket_span_ms = 2000.0;
  config.keep_outcomes = false;  // Distribution figures need aggregates only.
  return config;
}

/// p-th percentile of the normalized-QoE histogram (bin upper edge / 100).
double HistogramPercentile(const std::vector<std::uint64_t>& bins, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : bins) total += b;
  if (total == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    cumulative += bins[i];
    if (static_cast<double>(cumulative) >= target) {
      return static_cast<double>(i + 1) / 100.0;
    }
  }
  return 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"window_ms", "shards"});
  // The paper's 10 s analysis windows: the slice below is full scale.
  const double window_ms = flags.GetDouble("window_ms", 10000.0);
  // The replay's worker count (ControllerConfig::shards); the output is the
  // same at any value.
  const int shards = flags.GetInt("shards", 1);

  PrintHeader(
      "docs/OBJECTIVES.md — distributional objectives & abandonment",
      "optimizing the QoE distribution (Hoßfeld et al.), not just its mean",
      "peak-hour page-type-1 slice at full scale, replayed through the "
      "sharded controller once per objective against a 3-replica cluster "
      "operating near its knee; abandonment sweep at the default patience "
      "model");

  const std::vector<TraceRecord>& slice = TestbedSlice();
  const auto selector = PageQoeSelector();
  // Per-replica profile with a knee just above the slice's ~8 rps offered
  // load: per-window allocations genuinely trade the fast replica off
  // against backlog risk, which is where the objectives disagree.
  const ProfiledReplicaModel servers = [] {
    LoadProfile profile;
    profile.max_rps = 5.0;
    for (int level = 1; level <= 8; ++level) {
      profile.level_rps.push_back(5.0 * level / 8.0);
      const double base = 80.0 * level;
      profile.delays.emplace_back(
          std::vector<double>{0.6 * base, base, 1.9 * base},
          std::vector<double>{0.25, 0.5, 0.25});
    }
    profile.max_stable_rps = 4.5;
    return ProfiledReplicaModel(3, profile);
  }();

  // --- QoE CDF per objective ------------------------------------------------
  struct Row {
    const char* label;
    ObjectiveConfig objective;
  };
  std::vector<Row> rows;
  rows.push_back({"mean (default)", {}});
  {
    ObjectiveConfig o;
    o.kind = ObjectiveKind::kTailPercentile;
    o.percentile = 5.0;
    rows.push_back({"p5 tail", o});
    o.percentile = 10.0;
    rows.push_back({"p10 tail", o});
  }
  {
    ObjectiveConfig o;
    o.kind = ObjectiveKind::kMeanMinusStdev;
    o.stdev_lambda = 0.5;
    rows.push_back({"mean - 0.5*stdev", o});
  }
  {
    ObjectiveConfig o;
    o.kind = ObjectiveKind::kFairnessConstrainedMean;
    rows.push_back({"fairness-constrained", o});
  }

  TextTable cdf({"Objective", "Mean QoE", "p5 (norm)", "p10 (norm)",
                 "p50 (norm)", "QoE stdev"});
  for (const Row& row : rows) {
    ShardedReplayConfig config = ReplayConfig(window_ms, shards);
    config.common.controller.policy.objective = row.objective;
    const ShardedReplayResult result =
        ReplayTraceSharded(slice, selector, servers, config);
    cdf.AddRow({row.label, TextTable::Num(result.result.mean_qoe, 4),
                TextTable::Num(HistogramPercentile(result.qoe_histogram, 5.0)),
                TextTable::Num(HistogramPercentile(result.qoe_histogram, 10.0)),
                TextTable::Num(HistogramPercentile(result.qoe_histogram, 50.0)),
                TextTable::Num(result.qoe_summary.stddev(), 4)});
  }
  cdf.Render(std::cout);
  std::cout << "\n";

  // --- Abandonment rate vs load --------------------------------------------
  TextTable load({"Planned-load factor", "Arrivals", "Abandoned",
                  "Abandonment rate"});
  for (const double factor : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    ShardedReplayConfig config = ReplayConfig(window_ms, shards);
    config.common.abandonment.enabled = true;
    config.common.controller.rps_planning_factor = factor;
    const ShardedReplayResult result =
        ReplayTraceSharded(slice, selector, servers, config);
    const double rate =
        result.result.arrivals == 0
            ? 0.0
            : static_cast<double>(result.result.abandoned) /
                  static_cast<double>(result.result.arrivals);
    load.AddRow({TextTable::Num(factor, 1),
                 TextTable::Int(static_cast<long long>(result.result.arrivals)),
                 TextTable::Int(static_cast<long long>(result.result.abandoned)),
                 TextTable::Pct(100.0 * rate)});
  }
  load.Render(std::cout);
  return 0;
}
