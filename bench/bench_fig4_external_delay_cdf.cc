// Figure 4: CDF of external delays among requests for the same page at the
// same frontend cluster. Paper: 25% too-fast (< 2 s), 50% sensitive
// (2-5.8 s), 25% too-slow (> 5.8 s).
#include <iostream>
#include <vector>

#include "common.h"
#include "stats/distribution.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {});
  (void)flags;

  PrintHeader("Figure 4 — External delay CDF",
              "substantial variance; 25% / 50% / 25% across the too-fast / "
              "sensitive / too-slow classes",
              "external delays of page type 1 requests from the synthetic "
              "trace (one frontend cluster, one page)");

  const Trace& trace = StandardTrace();
  std::vector<double> externals;
  for (const auto& r : trace.FilterByPage(PageType::kType1)) {
    externals.push_back(r.external_delay_ms);
  }
  const EmpiricalCdf cdf(externals);

  TextTable table({"External delay (s)", "CDF"});
  std::vector<double> ys;
  for (double sec : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 5.8, 6.0, 8.0, 10.0,
                     12.0, 16.0, 20.0, 25.0}) {
    const double c = cdf.Cdf(SecToMs(sec));
    table.AddRow({TextTable::Num(sec, 1), TextTable::Num(c, 3)});
    ys.push_back(c);
  }
  table.Render(std::cout);
  std::cout << AsciiChart(ys) << "\n";

  const double fast = cdf.Cdf(2000.0);
  const double slow = 1.0 - cdf.Cdf(5800.0);
  std::cout << "Sensitivity classes (paper: 25% / 50% / 25%):\n"
            << "  too-fast-to-matter  (< 2.0 s): " << TextTable::Pct(fast * 100)
            << "\n  sensitive       (2.0-5.8 s): "
            << TextTable::Pct((1.0 - fast - slow) * 100)
            << "\n  too-slow-to-matter (> 5.8 s): "
            << TextTable::Pct(slow * 100) << "\n";
  return 0;
}
