// Trace analysis walkthrough: generate a synthetic day of traffic, persist
// it as CSV, and reproduce the paper's Sec 2 motivation numbers — the
// sensitivity-class split, delay independence, and the counterfactual
// reshuffling gain.
//
//   ./examples/trace_analysis [--scale=0.02] [--csv=/tmp/e2e_trace.csv]
#include <iostream>

#include "qoe/sigmoid_model.h"
#include "stats/fairness.h"
#include "testbed/counterfactual.h"
#include "trace/generator.h"
#include "trace/io.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace e2e;
  const Flags flags(argc, argv, {"scale", "csv"});
  const double scale = flags.GetDouble("scale", 0.02);
  const std::string csv = flags.GetString("csv", "");

  TraceGenParams params;
  params.seed = 1;
  params.scale = scale;
  const Trace trace = TraceGenerator(params).Generate();
  const TraceSummary summary = Summarize(trace);
  std::cout << "Generated " << trace.records.size() << " page loads ("
            << summary.total_unique_users << " users) at scale " << scale
            << " of the paper's day.\n";
  if (!csv.empty()) {
    WriteTraceCsvFile(trace, csv);
    std::cout << "Wrote the trace to " << csv << "\n";
  }

  // Sensitivity classes (Sec 2.2 / Fig. 4).
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  int counts[3] = {0, 0, 0};
  std::vector<double> externals, servers;
  for (const auto& r : trace.FilterByPage(PageType::kType1)) {
    ++counts[static_cast<int>(qoe.Classify(r.external_delay_ms))];
    externals.push_back(r.external_delay_ms);
    servers.push_back(r.server_delay_ms);
  }
  const double n = counts[0] + counts[1] + counts[2];
  std::cout << "\nSensitivity classes of page-type-1 requests (paper: "
               "25/50/25%):\n  too-fast "
            << TextTable::Pct(counts[0] / n * 100) << ", sensitive "
            << TextTable::Pct(counts[1] / n * 100) << ", too-slow "
            << TextTable::Pct(counts[2] / n * 100) << "\n";
  std::cout << "External/server delay correlation (paper: none): "
            << TextTable::Num(PearsonCorrelation(externals, servers), 3)
            << "\n";

  // Counterfactual reshuffle (Sec 2.3).
  const auto selector = [&](PageType) -> const QoeModel& { return qoe; };
  const auto recorded = ReshuffleWithinWindows(
      trace.FilterByPage(PageType::kType1), selector,
      ReshufflePolicy::kRecorded, 240000.0);
  const auto reshuffled = ReshuffleWithinWindows(
      trace.FilterByPage(PageType::kType1), selector,
      ReshufflePolicy::kSlopeRanked, 240000.0);
  std::cout << "\nReshuffling server-side delays by QoE sensitivity within "
               "windows:\n  mean QoE "
            << TextTable::Num(recorded.new_mean_qoe, 3) << " -> "
            << TextTable::Num(reshuffled.new_mean_qoe, 3) << " ("
            << TextTable::Pct(reshuffled.MeanGainPercent())
            << " better, with the same delays and the same servers)\n";
  return 0;
}
