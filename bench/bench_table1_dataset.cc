// Table 1: dataset summary — page loads, web sessions, unique URLs, unique
// users per page type (paper: 682.6K / 314.1K / 600.2K page loads, one day).
#include <iostream>

#include "common.h"
#include "trace/record.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"scale"});
  const double scale = flags.GetDouble("scale", kTraceScale);

  PrintHeader(
      "Table 1 — Dataset summary",
      "682.6K/314.1K/600.2K page loads; 564.8K/265.7K/512.2K sessions; "
      "3.8K/1.5K/3.2K URLs; 521.5K/264.2K/481.8K users (02/20/2018)",
      "synthetic trace at scale " + TextTable::Num(scale, 3) +
          " of the paper's one-day volume; the x(1/scale) column "
          "extrapolates back to full scale");

  const Trace& trace = StandardTrace(scale);
  const TraceSummary summary = Summarize(trace);

  TextTable table({"Metric", "Page Type 1", "Page Type 2", "Page Type 3",
                   "Full-scale eq. (K, type 1/2/3)"});
  auto full = [&](std::size_t v) {
    return TextTable::Num(static_cast<double>(v) / scale / 1000.0, 1);
  };
  const auto& p = summary.per_page;
  table.AddRow({"Page loads", TextTable::Int((long long)p[0].page_loads),
                TextTable::Int((long long)p[1].page_loads),
                TextTable::Int((long long)p[2].page_loads),
                full(p[0].page_loads) + " / " + full(p[1].page_loads) +
                    " / " + full(p[2].page_loads)});
  table.AddRow({"Web sessions", TextTable::Int((long long)p[0].web_sessions),
                TextTable::Int((long long)p[1].web_sessions),
                TextTable::Int((long long)p[2].web_sessions),
                full(p[0].web_sessions) + " / " + full(p[1].web_sessions) +
                    " / " + full(p[2].web_sessions)});
  table.AddRow({"Unique URLs", TextTable::Int((long long)p[0].unique_urls),
                TextTable::Int((long long)p[1].unique_urls),
                TextTable::Int((long long)p[2].unique_urls),
                full(p[0].unique_urls) + " / " + full(p[1].unique_urls) +
                    " / " + full(p[2].unique_urls)});
  table.AddRow({"Unique users", TextTable::Int((long long)p[0].unique_users),
                TextTable::Int((long long)p[1].unique_users),
                TextTable::Int((long long)p[2].unique_users),
                full(p[0].unique_users) + " / " + full(p[1].unique_users) +
                    " / " + full(p[2].unique_users)});
  table.Render(std::cout);

  std::cout << "\nTotals: " << TextTable::Int((long long)summary.total_page_loads)
            << " page loads, "
            << TextTable::Int((long long)summary.total_unique_users)
            << " unique users (paper: 1.6M page loads, 1.17M users at full "
               "scale)\n";
  return 0;
}
