// Figure 20: robustness of E2E's QoE gain to prediction errors in
//  (a) per-request external-delay estimates, and
//  (b) the offered request rate (RPS).
// Paper: with 20% external-delay error E2E keeps >90% of its gain; with
// 10% RPS error it keeps ~91%.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common.h"
#include "testbed/metrics.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {});
  (void)flags;

  PrintHeader("Figure 20 — Robustness to prediction errors",
              ">90% of the gain survives 20% external-delay error; ~91% "
              "survives 10% RPS error",
              "db and broker testbeds at their reference speed-ups with "
              "injected relative errors");

  const auto& slice = TestbedSlice();
  const QoeModel& qoe = QoeForPage(PageType::kType1);
  const std::vector<double> errors = {0.0, 0.05, 0.10, 0.15, 0.20};

  const auto db_default = RunDbExperiment(
      slice, qoe, StandardDbConfig(DbPolicy::kDefault, kDbReferenceSpeedup));
  const auto broker_default = RunBrokerExperiment(
      slice, qoe,
      StandardBrokerConfig(BrokerPolicy::kDefault, kBrokerReferenceSpeedup));

  std::cout << "(a) External-delay prediction error\n";
  TextTable table_a({"Relative error", "Cassandra gain (%)",
                     "RabbitMQ gain (%)"});
  for (double err : errors) {
    auto db_config = StandardDbConfig(DbPolicy::kE2e, kDbReferenceSpeedup);
    db_config.external_delay_error = err;
    const auto db = RunDbExperiment(slice, qoe, db_config);
    auto broker_config =
        StandardBrokerConfig(BrokerPolicy::kE2e, kBrokerReferenceSpeedup);
    broker_config.external_delay_error = err;
    const auto broker = RunBrokerExperiment(slice, qoe, broker_config);
    table_a.AddRow(
        {TextTable::Pct(err * 100.0),
         TextTable::Num(QoeGainPercent(db_default.mean_qoe, db.mean_qoe), 1),
         TextTable::Num(
             QoeGainPercent(broker_default.mean_qoe, broker.mean_qoe), 1)});
  }
  table_a.Render(std::cout);

  std::cout << "\n(b) RPS prediction error\n";
  TextTable table_b({"Relative error", "Cassandra gain (%)",
                     "RabbitMQ gain (%)"});
  for (double err : errors) {
    auto db_config = StandardDbConfig(DbPolicy::kE2e, kDbReferenceSpeedup);
    db_config.rps_error = err;
    const auto db = RunDbExperiment(slice, qoe, db_config);
    auto broker_config =
        StandardBrokerConfig(BrokerPolicy::kE2e, kBrokerReferenceSpeedup);
    broker_config.rps_error = err;
    const auto broker = RunBrokerExperiment(slice, qoe, broker_config);
    table_b.AddRow(
        {TextTable::Pct(err * 100.0),
         TextTable::Num(QoeGainPercent(db_default.mean_qoe, db.mean_qoe), 1),
         TextTable::Num(
             QoeGainPercent(broker_default.mean_qoe, broker.mean_qoe), 1)});
  }
  table_b.Render(std::cout);

  std::cout << "\nExpected shape: gains decline gently with error; most of "
               "the zero-error gain survives 10-20% error.\n";
  return 0;
}
