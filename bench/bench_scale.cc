// Full-volume scale bench (docs/SCALE.md): replays the synthetic day
// through the sharded controller at 1x (the historical 5% bench volume),
// 10x, and full (100% — the paper's ~1.6M page loads / ~1.17M users) and
// reports windows/sec plus peak RSS. Outcomes are folded into aggregates
// as windows merge (keep_outcomes = false), so replay state stays
// O(window x shards) — the RSS the table reports grows with the *input
// trace*, not with the replay.
//
// Wall-clock timing and getrusage peak-RSS are machine-dependent by
// design (allowlisted wall-clock reads); the deterministic columns
// (records, groups, windows, mean QoE) are reproducible and double as a
// cheap full-volume determinism check. `--json_out=PATH` writes the
// committed bench/BENCH_scale.json baseline format.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "core/server_delay_model.h"
#include "stats/distribution.h"
#include "testbed/sharded_replay.h"
#include "trace/generator.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace e2e::bench {
namespace {

struct Volume {
  const char* label;
  double scale;
};

constexpr Volume kVolumes[] = {
    {"1x", 0.05},    // The pre-scale-tier bench volume (EXPERIMENTS.md).
    {"10x", 0.5},
    {"full", 1.0},   // The paper's whole day.
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// The replicated-database G(.) the scale runs plan against: capacity sized
// so the full-volume day has meaningful load spread without saturating.
ProfiledReplicaModel ScaleServerModel() {
  LoadProfile profile;
  profile.max_rps = 120.0;
  for (int level = 1; level <= 8; ++level) {
    const double rps = 120.0 * static_cast<double>(level) / 8.0;
    profile.level_rps.push_back(rps);
    const double base = 40.0 + 12.0 * static_cast<double>(level);
    profile.delays.emplace_back(
        std::vector<double>{0.6 * base, base, 1.9 * base},
        std::vector<double>{0.25, 0.5, 0.25});
  }
  profile.max_stable_rps = 105.0;
  return ProfiledReplicaModel(3, profile);
}

struct Row {
  std::string volume;
  double scale = 0.0;
  std::uint64_t records = 0;
  std::uint64_t groups = 0;
  std::uint64_t windows = 0;
  int shards = 0;
  double mean_qoe = 0.0;
  double elapsed_sec = 0.0;
  double windows_per_sec = 0.0;
  double records_per_sec = 0.0;
  double rss_after_gen_mb = 0.0;
  double peak_rss_mb = 0.0;
};

Row RunVolume(const Volume& volume, int shards) {
  TraceGenParams params;
  params.seed = kSeed;
  params.scale = volume.scale;
  const Trace trace = TraceGenerator(params).Generate();
  const double rss_after_gen = PeakRssMb();

  ShardedReplayConfig config;
  config.common.seed = kSeed;
  config.common.controller.external.window_ms = 10000.0;  // Paper windows.
  config.common.controller.shards = shards;
  config.keep_outcomes = false;

  const ProfiledReplicaModel g = ScaleServerModel();
  const auto start = std::chrono::steady_clock::now();
  const ShardedReplayResult replay =
      ReplayTraceSharded(trace.records, PageQoeSelector(), g, config);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Row row;
  row.volume = volume.label;
  row.scale = volume.scale;
  row.records = replay.stats.records;
  row.groups = replay.stats.groups_merged;
  row.windows = replay.stats.windows_streamed;
  row.shards = replay.stats.shards;
  row.mean_qoe = replay.result.mean_qoe;
  row.elapsed_sec = elapsed;
  row.windows_per_sec =
      elapsed > 0.0 ? static_cast<double>(row.windows) / elapsed : 0.0;
  row.records_per_sec =
      elapsed > 0.0 ? static_cast<double>(row.records) / elapsed : 0.0;
  row.rss_after_gen_mb = rss_after_gen;
  row.peak_rss_mb = PeakRssMb();
  return row;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"e2e.bench_scale.v1\",\n  \"volumes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"volume\": \"" << r.volume << "\", \"scale\": "
        << JsonNumber(r.scale) << ", \"records\": " << r.records
        << ", \"groups\": " << r.groups << ", \"windows\": " << r.windows
        << ", \"shards\": " << r.shards
        << ", \"mean_qoe\": " << JsonNumber(r.mean_qoe)
        << ", \"elapsed_sec\": " << JsonNumber(r.elapsed_sec)
        << ", \"windows_per_sec\": " << JsonNumber(r.windows_per_sec)
        << ", \"records_per_sec\": " << JsonNumber(r.records_per_sec)
        << ", \"rss_after_gen_mb\": " << JsonNumber(r.rss_after_gen_mb)
        << ", \"peak_rss_mb\": " << JsonNumber(r.peak_rss_mb) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv, {"volume", "shards", "json_out"});
  const std::string volume_arg = flags.GetString("volume", "all");
  const int shards = flags.GetInt("shards", 0);

  PrintHeader(
      "scale",
      "E2E's controller handles the full production day (~1.6M page loads)",
      "sharded streaming replay, 10 s windows, aggregates-only outcomes; "
      "peak RSS is dominated by the in-memory input trace");

  std::vector<Row> rows;
  for (const Volume& volume : kVolumes) {
    if (volume_arg != "all" && volume_arg != volume.label) continue;
    rows.push_back(RunVolume(volume, shards));
    const Row& r = rows.back();
    std::cout << "volume=" << r.volume << " scale=" << r.scale
              << " shards=" << r.shards << " records=" << r.records
              << " groups=" << r.groups << " windows=" << r.windows
              << " mean_qoe=" << r.mean_qoe << "\n"
              << "  elapsed=" << r.elapsed_sec << "s windows/sec="
              << r.windows_per_sec << " records/sec=" << r.records_per_sec
              << " rss_after_gen=" << r.rss_after_gen_mb
              << "MB peak_rss=" << r.peak_rss_mb << "MB\n";
  }
  if (rows.empty()) {
    std::cerr << "unknown --volume=" << volume_arg
              << " (expected 1x, 10x, full, or all)\n";
    return 2;
  }
  if (flags.Has("json_out")) {
    const std::string path = flags.GetString("json_out", "");
    WriteJson(path, rows);
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace e2e::bench

int main(int argc, char** argv) { return e2e::bench::Main(argc, argv); }
