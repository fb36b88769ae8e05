#include "testbed/workloads.h"

#include <algorithm>
#include <iterator>

namespace e2e {

Trace MakeStandardTrace(double scale, std::uint64_t seed) {
  TraceGenParams params;
  params.seed = seed;
  params.scale = scale;
  return TraceGenerator(params).Generate();
}

std::vector<TraceRecord> HourSlice(const Trace& trace, PageType page,
                                   int begin_hour, int end_hour) {
  const double begin_ms = begin_hour * 3600.0 * 1000.0;
  const double end_ms = end_hour * 3600.0 * 1000.0;
  const auto in_slice = [&](const TraceRecord& r) {
    return r.page_type == page && r.arrival_ms >= begin_ms &&
           r.arrival_ms < end_ms;
  };
  // Counted first, so the slice is allocated once at its exact size.
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(std::count_if(
      trace.records.begin(), trace.records.end(), in_slice)));
  std::copy_if(trace.records.begin(), trace.records.end(),
               std::back_inserter(out), in_slice);
  return out;
}

std::vector<TraceRecord> MakeSyntheticWorkload(
    const SyntheticWorkloadParams& params) {
  Rng rng(params.seed);
  std::vector<TraceRecord> records;
  records.reserve(params.num_requests);
  const double gap_ms = 1000.0 / params.rps;
  double t = 0.0;
  for (std::size_t i = 0; i < params.num_requests; ++i) {
    TraceRecord rec;
    rec.request_id = i + 1;
    rec.user_id = i + 1;
    rec.session_id = i + 1;
    rec.page_type = PageType::kType1;
    t += rng.ExponentialMean(gap_ms);
    rec.arrival_ms = t;
    rec.external_delay_ms = rng.TruncatedNormal(
        params.external_mean_ms,
        params.external_mean_ms * params.external_cov, 10.0);
    rec.server_delay_ms = rng.TruncatedNormal(
        params.server_mean_ms, params.server_mean_ms * params.server_cov, 1.0);
    records.push_back(rec);
  }
  return records;
}

}  // namespace e2e
