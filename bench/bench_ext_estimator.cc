// Extension (§9 "Real-time external delay estimation"): run E2E with the
// mechanistic frontend estimators (Timecard-style WAN + Mystery-Machine
// rendering) instead of oracle external delays.
// Paper's claim to validate: since E2E is not very sensitive to estimate
// accuracy (Fig. 20a), these practical estimators should retain most of the
// oracle gain.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "common.h"
#include "stats/summary.h"
#include "testbed/frontend.h"
#include "testbed/metrics.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {});
  (void)flags;

  PrintHeader("Extension — Mechanistic external-delay estimation (Sec 9)",
              "Timecard RTT + Mystery Machine rendering estimates should "
              "keep most of the oracle gain (cf. Fig. 20a)",
              "db testbed at the reference speed-up; estimator trained on "
              "2000 instrumented sessions");

  const auto& slice = TestbedSlice();
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  // First: characterize the estimator's accuracy on this population.
  {
    Frontend frontend(FrontendParams{});
    frontend.TrainRenderModel(slice);
    std::vector<double> rel_errors;
    for (std::size_t i = 2000; i < std::min<std::size_t>(slice.size(), 8000);
         ++i) {
      const auto& rec = slice[i];
      const double est = frontend.EstimateExternal(rec);
      rel_errors.push_back(std::abs(est - rec.external_delay_ms) /
                           rec.external_delay_ms);
    }
    std::sort(rel_errors.begin(), rel_errors.end());
    std::cout << "Estimator relative error: median "
              << TextTable::Pct(
                     rel_errors[rel_errors.size() / 2] * 100.0)
              << ", p90 "
              << TextTable::Pct(
                     rel_errors[rel_errors.size() * 9 / 10] * 100.0)
              << "\n\n";
  }

  const auto def = RunDbExperiment(
      slice, qoe, StandardDbConfig(DbPolicy::kDefault, kDbReferenceSpeedup));

  TextTable table({"External-delay source", "Mean QoE",
                   "Gain over default (%)"});
  {
    const auto oracle = RunDbExperiment(
        slice, qoe, StandardDbConfig(DbPolicy::kE2e, kDbReferenceSpeedup));
    table.AddRow({"oracle (trace ground truth)",
                  TextTable::Num(oracle.mean_qoe, 3),
                  TextTable::Num(
                      QoeGainPercent(def.mean_qoe, oracle.mean_qoe), 1)});
  }
  {
    auto config = StandardDbConfig(DbPolicy::kE2e, kDbReferenceSpeedup);
    config.external_source = ExternalSource::kMechanisticEstimator;
    const auto estimated = RunDbExperiment(slice, qoe, config);
    table.AddRow({"frontend estimators (Timecard + Mystery Machine)",
                  TextTable::Num(estimated.mean_qoe, 3),
                  TextTable::Num(
                      QoeGainPercent(def.mean_qoe, estimated.mean_qoe), 1)});
  }
  {
    auto config = StandardDbConfig(DbPolicy::kE2e, kDbReferenceSpeedup);
    config.external_delay_error = 0.20;
    const auto noisy = RunDbExperiment(slice, qoe, config);
    table.AddRow({"oracle + 20% uniform error (Fig. 20a setting)",
                  TextTable::Num(noisy.mean_qoe, 3),
                  TextTable::Num(QoeGainPercent(def.mean_qoe, noisy.mean_qoe),
                                 1)});
  }
  table.Render(std::cout);

  std::cout << "\nExpected shape: the mechanistic estimators land between "
               "the oracle and the 20%-error bound.\n";
  return 0;
}
