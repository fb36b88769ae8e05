#include "trace/replay.h"

#include <cmath>
#include <stdexcept>

namespace e2e {

std::vector<ReplayArrival> BuildReplaySchedule(
    std::span<const TraceRecord> records, double speedup) {
  if (!(speedup > 0.0) || !std::isfinite(speedup)) {
    throw std::invalid_argument(
        "BuildReplaySchedule: speedup must be finite and > 0");
  }
  std::vector<ReplayArrival> schedule;
  schedule.reserve(records.size());
  if (records.empty()) return schedule;
  const double origin = records.front().arrival_ms;
  for (const auto& r : records) {
    if (r.arrival_ms < origin) {
      throw std::invalid_argument(
          "BuildReplaySchedule: records not in arrival order");
    }
    ReplayArrival a;
    a.record = r;
    a.testbed_time_ms = (r.arrival_ms - origin) / speedup;
    schedule.push_back(a);
  }
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i].testbed_time_ms < schedule[i - 1].testbed_time_ms) {
      throw std::invalid_argument(
          "BuildReplaySchedule: records not in arrival order");
    }
  }
  return schedule;
}

double OfferedRps(std::span<const ReplayArrival> schedule) {
  if (schedule.size() < 2) return 0.0;
  const double span_ms =
      schedule.back().testbed_time_ms - schedule.front().testbed_time_ms;
  if (span_ms <= 0.0) return 0.0;
  return static_cast<double>(schedule.size()) / (span_ms / 1000.0);
}

}  // namespace e2e
