#include "testbed/adversary_harness.h"

#include <algorithm>
#include <cmath>

#include "qoe/sigmoid_model.h"
#include "testbed/workloads.h"

namespace e2e {
namespace {

const SigmoidQoeModel& HarnessQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

}  // namespace

AdversaryHarness::AdversaryHarness(AdversaryHarnessConfig config)
    : config_(config) {
  SyntheticWorkloadParams params;
  params.num_requests = config_.requests;
  params.seed = config_.workload_seed;
  params.rps = config_.rps;
  records_ = MakeSyntheticWorkload(params);
  baseline_qoe_ = Run(fault::FaultPlan{}).mean_qoe;
}

DbExperimentConfig AdversaryHarness::ExperimentConfigFor(
    const fault::FaultPlan& plan) const {
  // The small-but-loaded db testbed the resilience property tests use:
  // 3 replicas near their knee, fast controller windows.
  DbExperimentConfig config;
  config.policy = DbPolicy::kE2e;
  config.dataset_keys = 2000;
  config.value_bytes = 16;
  config.range_count = 20;
  config.common.speedup = 1.0;
  config.cluster.replica_groups = 3;
  config.cluster.concurrency_per_replica = 8;
  config.cluster.base_service_ms = 120.0;
  config.cluster.capacity = 8.0;
  config.profile_levels = 12;
  config.profile_max_rps = 60.0;
  config.profile_duration_ms = 15000.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 10;
  config.common.fault_plan = plan;
  config.common.resilience = config_.model_driven
                                 ? resilience::ResilienceConfig::ModelDriven()
                                 : resilience::ResilienceConfig::DbAllOn();
  // Short replay: shrink the cloning-model window so model-driven gates
  // actually re-derive a few times inside the run.
  config.common.resilience.hedge.model.window_ms = 1000.0;
  config.common.resilience.hedge.model.min_samples = 16;
  return config;
}

ExperimentResult AdversaryHarness::Run(const fault::FaultPlan& plan) const {
  return RunDbExperiment(records_, HarnessQoe(), ExperimentConfigFor(plan));
}

double AdversaryHarness::Regression(const fault::FaultPlan& plan) const {
  return baseline_qoe_ - Run(plan).mean_qoe;
}

fault::AdversaryConfig AdversaryHarness::SearchSpace(std::uint64_t seed,
                                                     int iterations) const {
  fault::AdversaryConfig space;
  space.seed = seed;
  space.iterations = iterations;
  space.warmup = std::max(1, iterations / 4);
  space.time_grid_ms = 500.0;
  // Cover the replay span (arrival-ordered records), snapped up to the
  // grid, plus one cell so faults can outlast the last arrival.
  const double span_ms = records_.empty() ? 0.0 : records_.back().arrival_ms;
  space.horizon_ms =
      (std::ceil(span_ms / space.time_grid_ms) + 1.0) * space.time_grid_ms;
  space.horizon_ms = std::max(space.horizon_ms, 2.0 * space.time_grid_ms);
  space.replicas = 3;
  space.max_chains = 3;
  space.broker_faults = false;
  return space;
}

}  // namespace e2e
