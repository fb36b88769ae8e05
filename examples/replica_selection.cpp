// Use case #1 (Sec 6): QoE-aware replica selection in the Cassandra-like
// distributed database. Replays a synthetic workload against a 3-replica
// cluster under the default (load-balanced), slope-based, and E2E policies
// and reports per-sensitivity-class outcomes.
//
//   ./examples/replica_selection [--rps=80] [--requests=6000]
#include <array>
#include <iostream>

#include "qoe/sigmoid_model.h"
#include "testbed/db_experiment.h"
#include "testbed/metrics.h"
#include "testbed/workloads.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace e2e;

DbExperimentConfig DemoConfig(DbPolicy policy) {
  DbExperimentConfig config;
  config.policy = policy;
  config.common.speedup = 1.0;
  config.dataset_keys = 5000;
  config.value_bytes = 64;
  config.range_count = 100;
  config.cluster.replica_groups = 3;
  config.cluster.concurrency_per_replica = 32;
  config.cluster.base_service_ms = 200.0;
  config.cluster.capacity = 32.0;
  config.cluster.service_alpha = 3.0;
  config.cluster.service_beta = 1.3;
  config.profile_max_rps = 40.0;
  config.profile_levels = 10;
  config.profile_duration_ms = 30000.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.policy.target_buckets = 16;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"rps", "requests"});
  SyntheticWorkloadParams workload;
  workload.rps = flags.GetDouble("rps", 135.0);
  workload.num_requests =
      static_cast<std::size_t>(flags.GetInt("requests", 6000));
  const auto records = MakeSyntheticWorkload(workload);
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();

  std::cout << "Replica selection demo: " << workload.num_requests
            << " requests at " << workload.rps << " rps over 3 replicas\n\n";

  TextTable table({"Policy", "Mean QoE", "Mean server delay (ms)",
                   "QoE too-fast", "QoE sensitive", "QoE too-slow"});
  double default_qoe = 0.0;
  for (auto policy : {DbPolicy::kDefault, DbPolicy::kSlope, DbPolicy::kE2e}) {
    const auto result = RunDbExperiment(records, qoe, DemoConfig(policy));
    // Per-sensitivity-class mean QoE.
    std::array<double, 3> sum{};
    std::array<int, 3> count{};
    for (const auto& o : result.outcomes) {
      const auto cls =
          static_cast<std::size_t>(qoe.Classify(o.external_delay_ms));
      sum[cls] += o.qoe;
      ++count[cls];
    }
    const char* name = policy == DbPolicy::kDefault ? "default (balanced)"
                       : policy == DbPolicy::kSlope ? "slope-based"
                                                    : "E2E";
    if (policy == DbPolicy::kDefault) default_qoe = result.mean_qoe;
    table.AddRow({name, TextTable::Num(result.mean_qoe, 3),
                  TextTable::Num(result.mean_server_delay_ms, 0),
                  TextTable::Num(sum[0] / std::max(1, count[0]), 3),
                  TextTable::Num(sum[1] / std::max(1, count[1]), 3),
                  TextTable::Num(sum[2] / std::max(1, count[2]), 3)});
  }
  table.Render(std::cout);

  std::cout << "\nE2E routes delay-sensitive requests (external delay in the "
               "steep region of the QoE curve)\nto lighter replicas and lets "
               "insensitive requests absorb the slower ones.\n"
            << "Default policy mean QoE: " << TextTable::Num(default_qoe, 3)
            << "\n";
  return 0;
}
