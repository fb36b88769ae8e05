#include "testbed/counterfactual.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "matching/assignment.h"
#include "trace/windows.h"

namespace e2e {
namespace {

// Re-assigns the group's server delays according to the policy; returns the
// new delay for each request (indexed as the group).
std::vector<DelayMs> AssignDelays(std::span<const TraceRecord> group,
                                  const QoeModel& qoe,
                                  ReshufflePolicy policy) {
  const std::size_t n = group.size();
  std::vector<DelayMs> assigned(n);
  switch (policy) {
    case ReshufflePolicy::kRecorded: {
      for (std::size_t i = 0; i < n; ++i) {
        assigned[i] = group[i].server_delay_ms;
      }
      return assigned;
    }
    case ReshufflePolicy::kZeroServerDelay: {
      std::fill(assigned.begin(), assigned.end(), 0.0);
      return assigned;
    }
    case ReshufflePolicy::kSlopeRanked: {
      // k-th largest delay -> request with k-th smallest |dQ/dd| at c_i.
      std::vector<std::size_t> by_sensitivity(n);
      std::iota(by_sensitivity.begin(), by_sensitivity.end(), std::size_t{0});
      std::stable_sort(by_sensitivity.begin(), by_sensitivity.end(),
                [&](std::size_t a, std::size_t b) {
                  return qoe.Sensitivity(group[a].external_delay_ms) <
                         qoe.Sensitivity(group[b].external_delay_ms);
                });
      std::vector<DelayMs> delays(n);
      for (std::size_t i = 0; i < n; ++i) delays[i] = group[i].server_delay_ms;
      std::sort(delays.begin(), delays.end(), std::greater<>());
      for (std::size_t k = 0; k < n; ++k) {
        assigned[by_sensitivity[k]] = delays[k];
      }
      return assigned;
    }
    case ReshufflePolicy::kOptimalMatching: {
      std::vector<DelayMs> delays(n);
      for (std::size_t i = 0; i < n; ++i) delays[i] = group[i].server_delay_ms;
      WeightMatrix weights(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          weights.At(i, j) = qoe.Qoe(group[i].external_delay_ms + delays[j]);
        }
      }
      const AssignmentResult matching = SolveMaxWeightAssignment(weights);
      for (std::size_t i = 0; i < n; ++i) {
        assigned[i] = delays[matching.column_of_row[i]];
      }
      return assigned;
    }
  }
  throw std::logic_error("AssignDelays: unknown policy");
}

}  // namespace

ReshuffleResult ReshuffleWithinWindows(std::span<const TraceRecord> records,
                                       const QoeModelSelector& qoe_of_page,
                                       ReshufflePolicy policy,
                                       double window_ms,
                                       std::size_t min_group) {
  if (!qoe_of_page) {
    throw std::invalid_argument("ReshuffleWithinWindows: no QoE selector");
  }
  ReshuffleResult result;
  const auto groups = GroupByWindow(records, window_ms);
  double old_sum = 0.0;
  double new_sum = 0.0;
  for (const auto& [key, group] : groups) {
    const QoeModel& qoe = qoe_of_page(key.page_type);
    const ReshufflePolicy group_policy =
        group.size() >= min_group ? policy : ReshufflePolicy::kRecorded;
    const auto assigned = AssignDelays(group, qoe, group_policy);
    ++result.groups;
    for (std::size_t i = 0; i < group.size(); ++i) {
      ReshuffledRequest rr;
      rr.record = group[i];
      rr.new_server_delay_ms = assigned[i];
      rr.old_qoe = qoe.Qoe(group[i].TotalDelayMs());
      rr.new_qoe = qoe.Qoe(group[i].external_delay_ms + assigned[i]);
      old_sum += rr.old_qoe;
      new_sum += rr.new_qoe;
      result.requests.push_back(rr);
    }
  }
  if (!result.requests.empty()) {
    const auto n = static_cast<double>(result.requests.size());
    result.old_mean_qoe = old_sum / n;
    result.new_mean_qoe = new_sum / n;
  }
  return result;
}

}  // namespace e2e
