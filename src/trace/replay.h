// Trace replay with a speed-up ratio (§7.1): requests are fed to a testbed
// in chronological order with inter-arrival gaps divided by the ratio, which
// is how the paper loads its Cassandra/RabbitMQ deployments.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "trace/record.h"

namespace e2e {

/// One replayed arrival: the original record plus its compressed arrival
/// time on the testbed clock (starting at 0).
struct ReplayArrival {
  TraceRecord record;
  double testbed_time_ms = 0.0;
};

/// Builds the replay schedule for `records` (must be in arrival order) at
/// the given speed-up ratio. speedup >= 1 compresses time; 0 < speedup < 1
/// stretches it. Throws when speedup is not a finite value > 0.
std::vector<ReplayArrival> BuildReplaySchedule(
    std::span<const TraceRecord> records, double speedup);

/// Average offered load (requests per second) of a replay schedule.
double OfferedRps(std::span<const ReplayArrival> schedule);

}  // namespace e2e
