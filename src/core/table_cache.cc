#include "core/table_cache.h"

#include <cmath>
#include <stdexcept>

#include "stats/divergence.h"

namespace e2e {

DecisionTableCache::DecisionTableCache(TableCacheParams params)
    : params_(params) {
  // Written so that a NaN fails every test.
  if (!(params_.js_threshold >= 0.0) || params_.js_bins < 1 ||
      !(params_.support_lo_ms < params_.support_hi_ms) ||
      !(params_.rps_change_threshold >= 0.0)) {
    throw std::invalid_argument("DecisionTableCache: bad params");
  }
}

bool DecisionTableCache::NeedsRefresh(std::span<const double> window_samples,
                                      double window_rps) const {
  if (!has_table_) return true;
  if (window_samples.empty()) {
    ++hits_;
    return false;  // Nothing new to judge staleness by; keep serving.
  }
  if (snapshot_rps_ > 0.0) {
    const double rel_change =
        std::abs(window_rps - snapshot_rps_) / snapshot_rps_;
    if (rel_change > params_.rps_change_threshold) return true;
  }
  const double js =
      JsDivergenceOfSamples(snapshot_, window_samples, params_.support_lo_ms,
                            params_.support_hi_ms, params_.js_bins);
  if (js > params_.js_threshold) return true;
  ++hits_;
  return false;
}

void DecisionTableCache::Install(DecisionTable table,
                                 std::vector<double> snapshot_samples,
                                 double snapshot_rps) {
  if (table.rows.empty()) {
    throw std::invalid_argument("DecisionTableCache::Install: empty table");
  }
  table_ = std::move(table);
  snapshot_ = std::move(snapshot_samples);
  snapshot_rps_ = snapshot_rps;
  has_table_ = true;
  ++installs_;
}

void DecisionTableCache::Invalidate() {
  has_table_ = false;
  table_ = DecisionTable{};
  snapshot_.clear();
  snapshot_rps_ = 0.0;
}

}  // namespace e2e
