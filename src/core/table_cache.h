// Temporal coarsening (§5): cache the decision lookup table and recompute
// only when an input distribution has changed by a significant amount,
// measured by Jensen-Shannon divergence between the external-delay
// distribution snapshotted at install time and the current one (plus a
// relative change test on the offered load).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/policy.h"

namespace e2e {

/// Cache configuration.
struct TableCacheParams {
  /// J-S divergence (bits) above which the table is considered stale.
  double js_threshold = 0.04;
  /// Histogram bins for the divergence test.
  int js_bins = 16;
  /// Histogram support (ms); external delays clamp into this range. Both
  /// bounds must be finite, with lo < hi.
  double support_lo_ms = 0.0;
  double support_hi_ms = 30000.0;
  /// Relative offered-load change that also invalidates the table.
  double rps_change_threshold = 0.25;
};

/// The cached decision table plus staleness detection.
class DecisionTableCache {
 public:
  explicit DecisionTableCache(TableCacheParams params);

  /// True when there is no table yet, or the new window's distribution/load
  /// diverges from the installed snapshot beyond the thresholds.
  bool NeedsRefresh(std::span<const double> window_samples,
                    double window_rps) const;

  /// Installs a freshly computed table along with the window it was
  /// computed from.
  void Install(DecisionTable table, std::vector<double> snapshot_samples,
               double snapshot_rps);

  /// The current table, or nullptr before the first install.
  const DecisionTable* Get() const {
    return has_table_ ? &table_ : nullptr;
  }

  /// Drops the cached table (used by failover tests).
  void Invalidate();

  /// Number of Install() calls.
  std::uint64_t installs() const { return installs_; }

  /// Number of NeedsRefresh() calls that returned false (cache hits).
  std::uint64_t hits() const { return hits_; }

 private:
  TableCacheParams params_;
  bool has_table_ = false;
  DecisionTable table_;
  std::vector<double> snapshot_;
  double snapshot_rps_ = 0.0;
  std::uint64_t installs_ = 0;
  mutable std::uint64_t hits_ = 0;
};

}  // namespace e2e
