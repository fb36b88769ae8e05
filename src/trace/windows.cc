#include "trace/windows.h"

#include <cmath>
#include <stdexcept>

namespace e2e {

std::map<WindowKey, std::vector<TraceRecord>> GroupByWindow(
    std::span<const TraceRecord> records, double window_ms) {
  if (!(window_ms > 0.0)) {  // NaN fails too.
    throw std::invalid_argument("GroupByWindow: window_ms <= 0");
  }
  std::map<WindowKey, std::vector<TraceRecord>> groups;
  for (const auto& r : records) {
    WindowKey key{.page_type = r.page_type,
                  .window_index = static_cast<std::int64_t>(
                      std::floor(r.arrival_ms / window_ms))};
    groups[key].push_back(r);
  }
  return groups;
}

void StreamByWindow(
    std::span<const TraceRecord> records, double window_ms,
    const std::function<void(const WindowKey&, const TraceRecord&)>& on_record,
    const std::function<void(std::int64_t)>& on_close) {
  if (!(window_ms > 0.0)) {  // NaN fails too.
    throw std::invalid_argument("StreamByWindow: window_ms <= 0");
  }
  bool open = false;
  std::int64_t current = 0;
  double last_arrival = 0.0;
  for (const auto& r : records) {
    if (open && r.arrival_ms < last_arrival) {
      throw std::invalid_argument(
          "StreamByWindow: records not sorted by arrival_ms");
    }
    last_arrival = r.arrival_ms;
    const auto index =
        static_cast<std::int64_t>(std::floor(r.arrival_ms / window_ms));
    if (!open) {
      current = index;
      open = true;
    }
    // Close every elapsed index (including empty ones) in ascending order
    // before routing the record that advanced past them.
    while (current < index) {
      on_close(current);
      ++current;
    }
    on_record(WindowKey{.page_type = r.page_type, .window_index = index}, r);
  }
  if (open) on_close(current);
}

std::vector<std::vector<TraceRecord>> SampleWindowsPerTenMinutes(
    std::span<const TraceRecord> records, double begin_ms, double end_ms,
    double window_ms) {
  if (window_ms <= 0.0 || begin_ms >= end_ms) {
    throw std::invalid_argument("SampleWindowsPerTenMinutes: bad interval");
  }
  constexpr double kTenMinutesMs = 10.0 * 60.0 * 1000.0;
  std::vector<std::vector<TraceRecord>> windows;
  for (double stretch = begin_ms; stretch < end_ms; stretch += kTenMinutesMs) {
    const double stretch_end = std::min(stretch + kTenMinutesMs, end_ms);
    const double sub_begin = stretch_end - window_ms;
    std::vector<TraceRecord> window;
    for (const auto& r : records) {
      if (r.arrival_ms >= sub_begin && r.arrival_ms < stretch_end) {
        window.push_back(r);
      }
    }
    if (!window.empty()) windows.push_back(std::move(window));
  }
  return windows;
}

}  // namespace e2e
