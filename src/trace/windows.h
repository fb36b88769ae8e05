// Windowed grouping of trace records.
//
// The paper's counterfactual analysis (§2.3) and the controller's batched
// model updates (§6) both operate on requests grouped by page type within
// fixed time windows (10 s by default); delays are only comparable within a
// group.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "trace/record.h"

namespace e2e {

/// Key identifying one (page type, window) group.
struct WindowKey {
  PageType page_type = PageType::kType1;
  std::int64_t window_index = 0;

  auto operator<=>(const WindowKey&) const = default;
};

/// Groups records by page type and fixed-size arrival window.
/// `window_ms` must be positive (NaN throws). Record order within a group
/// follows the input order.
std::map<WindowKey, std::vector<TraceRecord>> GroupByWindow(
    std::span<const TraceRecord> records, double window_ms);

/// Streaming counterpart of GroupByWindow for O(window) peak memory over an
/// arrival-sorted trace: `on_record` fires once per record with its group
/// key, in trace order; `on_close(window_index)` fires once per elapsed
/// window index in strictly ascending order, as soon as the first record of
/// a later window arrives (every group of that index — all page types — is
/// complete at that point), and once more for the final window after the
/// last record. A close for index i is emitted even when i held no records,
/// so consumers can rely on one close per index in [first, last]. Throws
/// when `window_ms` is not positive (NaN included) or the records are not
/// sorted by arrival_ms.
void StreamByWindow(
    std::span<const TraceRecord> records, double window_ms,
    const std::function<void(const WindowKey&, const TraceRecord&)>& on_record,
    const std::function<void(std::int64_t)>& on_close);

/// Selects, for each 10-minute stretch inside [begin_ms, end_ms), the last
/// `window_ms` sub-window of records — the sampling scheme Fig. 6 uses
/// ("for every 10 minutes, pick the last 10-second window").
std::vector<std::vector<TraceRecord>> SampleWindowsPerTenMinutes(
    std::span<const TraceRecord> records, double begin_ms, double end_ms,
    double window_ms);

}  // namespace e2e
