// Figure 8: CDF of stdev/mean (coefficient of variation) of server-side
// delays, per page type. Paper: server delays are highly variable — and not
// just at the tail — creating the "wiggle room" E2E exploits.
#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "common.h"
#include "stats/summary.h"
#include "trace/windows.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"window_ms"});
  const double window_ms = flags.GetDouble("window_ms", kWindowMs);

  PrintHeader("Figure 8 — Server-side delay variability",
              "stdev/mean mass spread well above 0 for every page type "
              "(variance not only at the tail)",
              "CoV of server delays within page-type x window groups, "
              "CDF across groups per page type");

  const Trace& trace = StandardTrace();
  const auto groups = GroupByWindow(trace.records, window_ms);

  std::map<PageType, std::vector<double>> covs;
  for (const auto& [key, group] : groups) {
    if (group.size() < 10) continue;
    StreamingSummary s;
    for (const auto& r : group) s.Add(r.server_delay_ms);
    covs[key.page_type].push_back(s.cov());
  }

  TextTable table({"Stdev/mean", "CDF type 1", "CDF type 2", "CDF type 3"});
  for (auto& [page, values] : covs) {
    std::sort(values.begin(), values.end());
  }
  auto cdf_at = [&](PageType page, double x) {
    const auto& values = covs[page];
    return static_cast<double>(
               std::upper_bound(values.begin(), values.end(), x) -
               values.begin()) /
           static_cast<double>(values.size());
  };
  for (double x : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0}) {
    table.AddRow({TextTable::Num(x, 1),
                  TextTable::Num(cdf_at(PageType::kType1, x), 3),
                  TextTable::Num(cdf_at(PageType::kType2, x), 3),
                  TextTable::Num(cdf_at(PageType::kType3, x), 3)});
  }
  table.Render(std::cout);

  std::cout << "\nMedian CoV per page type: ";
  for (int p = 0; p < kNumPageTypes; ++p) {
    const auto& values = covs[PageTypeFromIndex(p)];
    std::cout << ToString(PageTypeFromIndex(p)) << "="
              << TextTable::Num(PercentileSorted(values, 50.0), 2) << "  ";
  }
  std::cout << "\n(paper: medians roughly 0.3-0.7, differing by page type)\n";
  return 0;
}
