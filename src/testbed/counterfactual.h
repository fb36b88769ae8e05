// Counterfactual server-delay reshuffling (§2.3) and trace-driven policy
// simulation (§7.1 "simulator").
//
// Both keep the external delay of every request and the *multiset* of
// server-side delays within each (page type, time window) group fixed, and
// only re-assign which request experiences which server-side delay:
//   * slope ranking (§2.3 / the slope-based baseline): the request with the
//     k-th smallest QoE derivative magnitude gets the k-th largest delay;
//   * optimal assignment (the E2E simulator policy): the permutation
//     maximizing the total QoE, solved as a max-weight matching on
//     Q(c_i + s_j) — this is what fixes the §3.2 non-convexity flips;
//   * zero-delay ideal: every server delay replaced with 0.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "qoe/qoe_model.h"
#include "trace/record.h"

namespace e2e {

/// How to re-assign delays within a group.
enum class ReshufflePolicy {
  kRecorded,          ///< Keep the recorded assignment (default policy).
  kSlopeRanked,       ///< §2.3 ranking by QoE-derivative magnitude.
  kOptimalMatching,   ///< E2E: max-weight assignment on exact Q(c+s).
  kZeroServerDelay,   ///< Idealized upper bound.
};

/// Per-request counterfactual outcome.
struct ReshuffledRequest {
  TraceRecord record;                ///< Original record.
  DelayMs new_server_delay_ms = 0.0; ///< Assigned server-side delay.
  double old_qoe = 0.0;              ///< Q(external + recorded).
  double new_qoe = 0.0;              ///< Q(external + assigned).

  double GainPercent() const {
    return old_qoe > 0.0 ? (new_qoe - old_qoe) / old_qoe * 100.0 : 0.0;
  }
};

/// Result over all groups.
struct ReshuffleResult {
  std::vector<ReshuffledRequest> requests;
  double old_mean_qoe = 0.0;
  double new_mean_qoe = 0.0;
  std::size_t groups = 0;

  double MeanGainPercent() const {
    return old_mean_qoe > 0.0
               ? (new_mean_qoe - old_mean_qoe) / old_mean_qoe * 100.0
               : 0.0;
  }
};

/// Selects the QoE model for a record's page type.
using QoeModelSelector = std::function<const QoeModel&(PageType)>;

/// Runs the reshuffle over `records`, grouping by page type within
/// `window_ms` windows (paper: 10 s at full trace scale; scale the window
/// with the trace so groups keep realistic sizes). Groups smaller than
/// `min_group` keep their recorded delays.
ReshuffleResult ReshuffleWithinWindows(std::span<const TraceRecord> records,
                                       const QoeModelSelector& qoe_of_page,
                                       ReshufflePolicy policy,
                                       double window_ms,
                                       std::size_t min_group = 2);

}  // namespace e2e
