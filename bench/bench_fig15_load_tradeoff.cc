// Figure 15: QoE vs normalized throughput under E2E, the slope-based
// policy, and the default.
//  (a) traces: hours of the day with naturally varying load;
//  (b) Cassandra testbed, speed-up 15x..25x;
//  (c) RabbitMQ testbed, speed-up 15x..25x.
// Paper: E2E always >= default; gains marginal at low load and growing to
// ~25% at system capacity; E2E at peak ~= default at off-peak (+40%
// throughput at equal QoE).
#include <iostream>
#include <vector>

#include "common.h"
#include "testbed/counterfactual.h"
#include "testbed/metrics.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"window_ms"});
  const double window_ms = flags.GetDouble("window_ms", kWindowMs);

  PrintHeader("Figure 15 — QoE vs load",
              "E2E >= slope >= default at every load; gap widens with load "
              "(~25% at capacity)",
              "(a) per-hour trace windows; (b)/(c) testbeds at speed-up "
              "15x..25x on the 4pm page-type-1 slice");

  // ---- (a) Traces ---------------------------------------------------------
  std::cout << "(a) Our traces (per-hour load variation)\n";
  const Trace& trace = StandardTrace();
  const auto selector = PageQoeSelector();
  const std::vector<int> hours = {0, 4, 15, 20, 22, 16};
  double max_tp = 0.0;
  struct Row {
    int hour;
    double tp, def, slope, e2e;
  };
  std::vector<Row> rows;
  for (int hour : hours) {
    const double begin = hour * 3600000.0;
    const auto hourly = trace.FilterByTime(begin, begin + 3600000.0);
    if (hourly.size() < 100) continue;
    Row row;
    row.hour = hour;
    row.tp = static_cast<double>(hourly.size());
    max_tp = std::max(max_tp, row.tp);
    row.def = ReshuffleWithinWindows(hourly, selector,
                                     ReshufflePolicy::kRecorded, window_ms)
                  .new_mean_qoe;
    row.slope = ReshuffleWithinWindows(hourly, selector,
                                       ReshufflePolicy::kSlopeRanked,
                                       window_ms)
                    .new_mean_qoe;
    row.e2e = ReshuffleWithinWindows(hourly, selector,
                                     ReshufflePolicy::kOptimalMatching,
                                     window_ms)
                  .new_mean_qoe;
    rows.push_back(row);
  }
  TextTable table_a({"Hour", "Throughput (norm.)", "Default QoE",
                     "Slope QoE", "E2E QoE"});
  for (const auto& row : rows) {
    table_a.AddRow({std::to_string(row.hour) + ":00",
                    TextTable::Num(row.tp / max_tp, 2),
                    TextTable::Num(row.def, 3), TextTable::Num(row.slope, 3),
                    TextTable::Num(row.e2e, 3)});
  }
  table_a.Render(std::cout);

  // ---- (b)/(c) Testbeds ---------------------------------------------------
  const auto& slice = TestbedSlice();
  const QoeModel& qoe = QoeForPage(PageType::kType1);
  const std::vector<double> db_speedups = {15.0, 17.5, 20.0, 22.5, 25.0};
  const std::vector<double> broker_speedups = {14.0, 16.0, 18.0, 20.0, 22.0};

  std::cout << "\n(b) Cassandra testbed\n";
  TextTable table_b({"Speed-up", "Throughput (norm.)", "Default QoE",
                     "Slope QoE", "E2E QoE", "E2E gain (%)"});
  for (double s : db_speedups) {
    const auto def =
        RunDbExperiment(slice, qoe, StandardDbConfig(DbPolicy::kDefault, s));
    const auto slope =
        RunDbExperiment(slice, qoe, StandardDbConfig(DbPolicy::kSlope, s));
    const auto e2e =
        RunDbExperiment(slice, qoe, StandardDbConfig(DbPolicy::kE2e, s));
    table_b.AddRow({TextTable::Num(s, 1) + "x",
                    TextTable::Num(s / db_speedups.back(), 2),
                    TextTable::Num(def.mean_qoe, 3),
                    TextTable::Num(slope.mean_qoe, 3),
                    TextTable::Num(e2e.mean_qoe, 3),
                    TextTable::Num(
                        QoeGainPercent(def.mean_qoe, e2e.mean_qoe), 1)});
  }
  table_b.Render(std::cout);

  std::cout << "\n(c) RabbitMQ testbed\n";
  TextTable table_c({"Speed-up", "Throughput (norm.)", "Default QoE",
                     "Slope QoE", "E2E QoE", "E2E gain (%)"});
  for (double s : broker_speedups) {
    const auto def = RunBrokerExperiment(
        slice, qoe, StandardBrokerConfig(BrokerPolicy::kDefault, s));
    const auto slope = RunBrokerExperiment(
        slice, qoe, StandardBrokerConfig(BrokerPolicy::kSlope, s));
    const auto e2e = RunBrokerExperiment(
        slice, qoe, StandardBrokerConfig(BrokerPolicy::kE2e, s));
    table_c.AddRow({TextTable::Num(s, 1) + "x",
                    TextTable::Num(s / broker_speedups.back(), 2),
                    TextTable::Num(def.mean_qoe, 3),
                    TextTable::Num(slope.mean_qoe, 3),
                    TextTable::Num(e2e.mean_qoe, 3),
                    TextTable::Num(
                        QoeGainPercent(def.mean_qoe, e2e.mean_qoe), 1)});
  }
  table_c.Render(std::cout);
  return 0;
}
