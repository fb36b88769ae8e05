// Extension (§9 "Complex request structures", the paper's primary future
// work): requests that fan out to two backend services and join.
// Paper's reasoning (Fig. 11 lifted across services): a service should not
// prioritize a request whose completion is gated by the *other* service.
#include <iostream>

#include "common.h"
#include "testbed/multi_service.h"
#include "testbed/workloads.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"rps", "metrics_out"});
  const double rps = flags.GetDouble("rps", 81.0);

  PrintHeader("Extension — Cross-service request dependencies (Sec 9)",
              "future work in the paper: E2E per service in isolation is "
              "suboptimal under partition-aggregate requests",
              "every request needs service A (1 msg/13 ms, E2E-capable); "
              "30% also need a legacy FIFO service B that takes ~4 s "
              "regardless of priority; requests join on the slower leg; "
              "workload at " + TextTable::Num(rps, 0) + " rps");

  const auto records = [&] {
    SyntheticWorkloadParams params;
    params.num_requests = 12000;
    params.rps = rps;
    params.seed = kSeed + 37;
    return MakeSyntheticWorkload(params);
  }();
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  auto config_for = [&](CrossServiceMode mode, bool use_e2e) {
    MultiServiceConfig config;
    config.common.collect_telemetry = TelemetryRequested(flags);
    config.mode = mode;
    config.use_e2e = use_e2e;
    config.service_a.priority_levels = 6;
    config.service_a.consume_interval_ms = 13.0;
    // B: a slow-but-stable legacy backend — 2.5 s of processing per
    // message regardless of priority (think: a batch index or an external
    // dependency E2E cannot influence).
    config.service_b.priority_levels = 6;
    config.service_b.consume_interval_ms = 15.0;
    config.service_b.handling_cost_ms = 4000.0;
    config.fanout_probability = 0.3;
    config.common.controller.external.window_ms = 5000.0;
    config.common.controller.external.min_samples = 20;
    config.common.controller.policy.target_buckets = 12;
    return config;
  };

  const auto fifo = RunMultiServiceExperiment(
      records, qoe, config_for(CrossServiceMode::kIsolated, false));
  const auto isolated = RunMultiServiceExperiment(
      records, qoe, config_for(CrossServiceMode::kIsolated, true));
  const auto aware = RunMultiServiceExperiment(
      records, qoe, config_for(CrossServiceMode::kDependencyAware, true));

  WriteTelemetrySidecar(flags, "services.fifo", fifo);
  WriteTelemetrySidecar(flags, "services.isolated", isolated);
  WriteTelemetrySidecar(flags, "services.aware", aware);

  TextTable table({"Policy", "Mean QoE", "Mean joined delay (ms)",
                   "Gain over FIFO (%)"});
  table.AddRow({"FIFO on both services", TextTable::Num(fifo.mean_qoe, 3),
                TextTable::Num(fifo.mean_server_delay_ms, 0), "0.0"});
  table.AddRow({"E2E per service, isolated",
                TextTable::Num(isolated.mean_qoe, 3),
                TextTable::Num(isolated.mean_server_delay_ms, 0),
                TextTable::Num(QoeGainPercent(fifo.mean_qoe,
                                              isolated.mean_qoe), 1)});
  table.AddRow({"E2E, dependency-aware", TextTable::Num(aware.mean_qoe, 3),
                TextTable::Num(aware.mean_server_delay_ms, 0),
                TextTable::Num(QoeGainPercent(fifo.mean_qoe, aware.mean_qoe),
                               1)});
  table.Render(std::cout);

  std::cout << "\nThe dependency-aware variant shifts each request along the "
               "QoE curve by the sibling service's\nexpected delay before "
               "deciding, so neither service wastes fast slots on gated "
               "requests.\n";
  return 0;
}
