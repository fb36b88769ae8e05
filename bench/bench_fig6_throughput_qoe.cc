// Figure 6: throughput vs QoE at peak and off-peak hours, current policy vs
// reshuffled delays. Paper: reshuffled QoE at peak hours matches (or beats)
// the current policy's QoE at off-peak hours => ~40% more concurrent
// requests at no QoE cost.
#include <iostream>
#include <map>
#include <vector>

#include "common.h"
#include "testbed/counterfactual.h"
#include "trace/windows.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"window_ms"});
  const double window_ms = flags.GetDouble("window_ms", kWindowMs);

  PrintHeader("Figure 6 — Throughput vs QoE (peak vs off-peak)",
              "reshuffled peak-hour QoE ~= current off-peak QoE; +40% "
              "throughput at no QoE drop",
              "hours {0,3,22} off-peak and {16,21} peak (ET); per 10 min "
              "take the last " + TextTable::Num(window_ms / 1000.0, 0) +
                  " s window, reshuffle within it (Sec 2.3)");

  const Trace& trace = StandardTrace();
  const auto selector = PageQoeSelector();
  const std::vector<int> hours = {0, 3, 22, 16, 21};

  struct HourPoint {
    double throughput = 0.0;
    double current_qoe = 0.0;
    double reshuffled_qoe = 0.0;
  };
  std::map<int, HourPoint> points;
  double max_throughput = 0.0;

  for (int hour : hours) {
    const double begin = hour * 3600000.0;
    const double end = begin + 3600000.0;
    const auto hourly = trace.FilterByTime(begin, end);
    const auto windows =
        SampleWindowsPerTenMinutes(hourly, begin, end, window_ms);
    double current_sum = 0.0, new_sum = 0.0;
    std::size_t count = 0;
    for (const auto& window : windows) {
      const auto result = ReshuffleWithinWindows(
          window, selector, ReshufflePolicy::kSlopeRanked, window_ms);
      current_sum += result.old_mean_qoe *
                     static_cast<double>(result.requests.size());
      new_sum += result.new_mean_qoe *
                 static_cast<double>(result.requests.size());
      count += result.requests.size();
    }
    HourPoint p;
    p.throughput = static_cast<double>(hourly.size()) / 3600.0;
    p.current_qoe = count > 0 ? current_sum / static_cast<double>(count) : 0;
    p.reshuffled_qoe = count > 0 ? new_sum / static_cast<double>(count) : 0;
    max_throughput = std::max(max_throughput, p.throughput);
    points[hour] = p;
  }

  TextTable table({"Hour (ET)", "Kind", "Throughput (norm.)",
                   "QoE current", "QoE reshuffled"});
  for (int hour : hours) {
    const auto& p = points[hour];
    table.AddRow({std::to_string(hour) + ":00",
                  (hour == 16 || hour == 21) ? "peak" : "off-peak",
                  TextTable::Num(p.throughput / max_throughput, 2),
                  TextTable::Num(p.current_qoe, 3),
                  TextTable::Num(p.reshuffled_qoe, 3)});
  }
  table.Render(std::cout);

  const double off_current = (points[0].current_qoe + points[3].current_qoe +
                              points[22].current_qoe) / 3.0;
  const double peak_reshuffled =
      (points[16].reshuffled_qoe + points[21].reshuffled_qoe) / 2.0;
  const double off_tp = (points[0].throughput + points[3].throughput +
                         points[22].throughput) / 3.0;
  const double peak_tp =
      (points[16].throughput + points[21].throughput) / 2.0;
  std::cout << "\nOff-peak current QoE: " << TextTable::Num(off_current, 3)
            << "; peak reshuffled QoE: " << TextTable::Num(peak_reshuffled, 3)
            << (peak_reshuffled >= off_current ? "  (>= off-peak: holds)"
                                               : "  (< off-peak)")
            << "\nPeak/off-peak throughput ratio: "
            << TextTable::Num(peak_tp / off_tp, 2)
            << "x (paper: ~1.4x more users at no QoE drop)\n";
  return 0;
}
