// Extension: a flash crowd shifts the external-delay distribution mid-run
// (e.g. a mobile-heavy audience arriving after a push notification).
// Exercises §5's temporal coarsening trigger: the decision table must be
// recomputed when the J-S divergence between the cached snapshot and the
// live window exceeds the threshold — a controller that never refreshes
// keeps serving a table built for the wrong population.
#include <iostream>

#include "common.h"
#include "testbed/metrics.h"
#include "testbed/workloads.h"

namespace {

using namespace e2e;
using namespace e2e::bench;

// First half: the usual population. Second half: a flash crowd whose
// external delays are ~2.2x larger (mobile-heavy), at higher rate.
std::vector<TraceRecord> FlashCrowdWorkload() {
  SyntheticWorkloadParams before;
  before.num_requests = 4000;
  before.rps = 85.0;
  before.seed = kSeed + 61;
  auto records = MakeSyntheticWorkload(before);

  SyntheticWorkloadParams crowd;
  crowd.num_requests = 6000;
  crowd.rps = 100.0;
  crowd.external_mean_ms = 8400.0;
  crowd.external_cov = 0.45;
  crowd.seed = kSeed + 62;
  const auto shifted = MakeSyntheticWorkload(crowd);
  const double offset = records.back().arrival_ms + 50.0;
  for (auto rec : shifted) {
    rec.request_id += 4000;
    rec.arrival_ms += offset;
    records.push_back(rec);
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {});
  (void)flags;

  PrintHeader("Extension — Flash crowd vs temporal coarsening (Sec 5)",
              "the decision table is \"only updated when a significant "
              "change is detected\" — this run forces such a change",
              "broker testbed; after 4000 requests a mobile-heavy crowd "
              "with ~2.2x larger external delays arrives at +18% rate");

  const auto records = FlashCrowdWorkload();
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  auto config_for = [](bool adaptive) {
    BrokerExperimentConfig config;
    config.policy = BrokerPolicy::kE2e;
    config.common.speedup = 1.0;
    config.broker.priority_levels = 8;
    config.broker.consume_interval_ms = 11.0;
    config.common.controller.external.window_ms = 5000.0;
    config.common.controller.external.min_samples = 20;
    config.common.controller.policy.target_buckets = 12;
    if (!adaptive) {
      // Disable the refresh triggers: the first table lives forever.
      config.common.controller.cache.js_threshold = 1e9;
      config.common.controller.cache.rps_change_threshold = 1e9;
    }
    return config;
  };

  BrokerExperimentConfig fifo_config = config_for(true);
  fifo_config.policy = BrokerPolicy::kDefault;
  const auto fifo = RunBrokerExperiment(records, qoe, fifo_config);
  const auto adaptive = RunBrokerExperiment(records, qoe, config_for(true));
  const auto frozen = RunBrokerExperiment(records, qoe, config_for(false));

  TextTable table({"Controller", "Mean QoE", "Gain over FIFO (%)",
                   "Table recomputes"});
  table.AddRow({"FIFO (no controller)", TextTable::Num(fifo.mean_qoe, 3),
                "0.0", "-"});
  table.AddRow({"E2E, J-S refresh enabled",
                TextTable::Num(adaptive.mean_qoe, 3),
                TextTable::Num(QoeGainPercent(fifo.mean_qoe,
                                              adaptive.mean_qoe), 1),
                TextTable::Int((long long)
                                   adaptive.controller_stats.recomputes)});
  table.AddRow({"E2E, refresh disabled (stale table)",
                TextTable::Num(frozen.mean_qoe, 3),
                TextTable::Num(QoeGainPercent(fifo.mean_qoe,
                                              frozen.mean_qoe), 1),
                TextTable::Int((long long)
                                   frozen.controller_stats.recomputes)});
  table.Render(std::cout);

  std::cout << "\nExpected shape: the adaptive controller recomputes when "
               "the crowd arrives and keeps its gain; the frozen table "
               "was built for the old population and loses part of it.\n";
  return 0;
}
