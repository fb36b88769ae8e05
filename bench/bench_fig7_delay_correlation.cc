// Figure 7: server-side delay percentiles as a function of external delay.
// Paper: candlesticks {5,25,50,75,95}p are flat across external-delay bins —
// the current allocation is agnostic to QoE sensitivity.
#include <iostream>
#include <vector>

#include "common.h"
#include "stats/fairness.h"
#include "stats/summary.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {});
  (void)flags;

  PrintHeader("Figure 7 — Server-side vs external delay",
              "no correlation: existing allocation is agnostic to QoE "
              "sensitivity",
              "page type 1 requests binned by external delay (1 s bins); "
              "candlesticks of server-side delay per bin");

  const Trace& trace = StandardTrace();
  const auto records = trace.FilterByPage(PageType::kType1);

  TextTable table({"External delay bin (s)", "p5 (s)", "p25 (s)", "p50 (s)",
                   "p75 (s)", "p95 (s)", "n"});
  const std::vector<double> ps = {5, 25, 50, 75, 95};
  std::vector<double> all_external, all_server;
  for (int bin = 1; bin <= 7; ++bin) {
    std::vector<double> servers;
    for (const auto& r : records) {
      if (r.external_delay_ms >= bin * 1000.0 &&
          r.external_delay_ms < (bin + 1) * 1000.0) {
        servers.push_back(r.server_delay_ms);
      }
    }
    if (servers.size() < 20) continue;
    const auto pct = Percentiles(servers, ps);
    table.AddRow({std::to_string(bin) + "-" + std::to_string(bin + 1),
                  TextTable::Num(MsToSec(pct[0]), 3),
                  TextTable::Num(MsToSec(pct[1]), 3),
                  TextTable::Num(MsToSec(pct[2]), 3),
                  TextTable::Num(MsToSec(pct[3]), 3),
                  TextTable::Num(MsToSec(pct[4]), 3),
                  TextTable::Int((long long)servers.size())});
  }
  table.Render(std::cout);

  for (const auto& r : records) {
    all_external.push_back(r.external_delay_ms);
    all_server.push_back(r.server_delay_ms);
  }
  std::cout << "\nPearson correlation (external, server): "
            << TextTable::Num(PearsonCorrelation(all_external, all_server), 4)
            << "\nSpearman correlation (external, server): "
            << TextTable::Num(SpearmanCorrelation(all_external, all_server), 4)
            << "\n(paper: visually uncorrelated)\n";
  return 0;
}
