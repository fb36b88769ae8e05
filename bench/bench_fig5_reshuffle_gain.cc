// Figure 5: CDF of per-request QoE gain from reshuffling server-side delays
// within (page type, window) groups by QoE sensitivity, vs the unrealizable
// ideal of zero server-side delay.
// Paper: <15.2% of requests marginally worse, >27.8% improve by >=20%,
// mean QoE +15.4%; the reshuffle tracks the zero-delay ideal closely.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common.h"
#include "stats/summary.h"
#include "testbed/counterfactual.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"window_ms"});
  const double window_ms = flags.GetDouble("window_ms", kWindowMs);

  PrintHeader("Figure 5 — Per-request QoE gain from reshuffling",
              "mean QoE +15.4%; <15.2% slightly worse; >27.8% gain >=20%; "
              "close to the zero-server-delay ideal",
              "slope-ranked reshuffle (the paper's Sec 2.3 method) within "
              "page-type x " + TextTable::Num(window_ms / 1000.0, 0) +
                  " s windows of the synthetic trace");

  const Trace& trace = StandardTrace();
  const auto selector = PageQoeSelector();

  const auto reshuffled = ReshuffleWithinWindows(
      trace.records, selector, ReshufflePolicy::kSlopeRanked, window_ms);
  const auto ideal = ReshuffleWithinWindows(
      trace.records, selector, ReshufflePolicy::kZeroServerDelay, window_ms);

  auto gains = [](const ReshuffleResult& result) {
    std::vector<double> out;
    out.reserve(result.requests.size());
    for (const auto& r : result.requests) out.push_back(r.GainPercent());
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto g_resh = gains(reshuffled);
  const auto g_ideal = gains(ideal);

  TextTable table({"CDF", "Reshuffled delay gain (%)",
                   "Zero server-side delay gain (%)"});
  for (double q : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
                   0.99}) {
    table.AddRow({TextTable::Num(q, 2),
                  TextTable::Num(PercentileSorted(g_resh, q * 100.0), 1),
                  TextTable::Num(PercentileSorted(g_ideal, q * 100.0), 1)});
  }
  table.Render(std::cout);

  auto frac_below = [](const std::vector<double>& sorted, double x) {
    return static_cast<double>(
               std::lower_bound(sorted.begin(), sorted.end(), x) -
               sorted.begin()) /
           static_cast<double>(sorted.size()) * 100.0;
  };
  std::cout << "\nReshuffled: mean QoE gain "
            << TextTable::Pct(reshuffled.MeanGainPercent())
            << " (paper: +15.4%)\n"
            << "  requests non-marginally worse (< -1%): "
            << TextTable::Pct(frac_below(g_resh, -1.0))
            << " (paper: <15.2% worse at all)\n"
            << "  requests worse at all (< 0): "
            << TextTable::Pct(frac_below(g_resh, -1e-9)) << "\n"
            << "  requests gaining >= 20%: "
            << TextTable::Pct(100.0 - frac_below(g_resh, 20.0))
            << " (paper: >27.8%)\n"
            << "Zero-delay ideal: mean QoE gain "
            << TextTable::Pct(ideal.MeanGainPercent()) << "\n"
            << "Reshuffle captures "
            << TextTable::Pct(reshuffled.MeanGainPercent() /
                              std::max(1e-9, ideal.MeanGainPercent()) * 100.0)
            << " of the ideal gain\n";
  return 0;
}
