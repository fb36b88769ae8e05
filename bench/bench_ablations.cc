// Ablations of E2E's design choices (DESIGN.md §5): each row removes or
// swaps one mechanism and reports the db-testbed QoE at the reference
// speed-up, plus trace-simulator comparisons of the mapping algorithm.
#include <iostream>

#include "common.h"
#include "testbed/counterfactual.h"
#include "testbed/metrics.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {});
  (void)flags;

  PrintHeader("Ablations — which mechanisms carry the gains",
              "(not in the paper; supports its design choices)",
              "db testbed at the reference speed-up; one knob changed per "
              "row");

  const auto& slice = TestbedSlice();
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  const auto def = RunDbExperiment(
      slice, qoe, StandardDbConfig(DbPolicy::kDefault, kDbReferenceSpeedup));

  TextTable table({"Variant", "Mean QoE", "Gain over default (%)"});
  auto run = [&](const char* name, auto mutate) {
    auto config = StandardDbConfig(DbPolicy::kE2e, kDbReferenceSpeedup);
    mutate(config);
    const auto result = RunDbExperiment(slice, qoe, config);
    table.AddRow({name, TextTable::Num(result.mean_qoe, 3),
                  TextTable::Num(QoeGainPercent(def.mean_qoe, result.mean_qoe),
                                 1)});
  };

  run("E2E (full)", [](DbExperimentConfig&) {});
  run("- fraction refinement (single fixed point pass)",
      [](DbExperimentConfig& c) { c.common.controller.policy.refine_fractions = false; });
  run("- instability penalty",
      [](DbExperimentConfig& c) {
        c.common.controller.policy.instability_penalty = 0.0;
      });
  run("- hill climbing (degenerate allocation only)",
      [](DbExperimentConfig& c) {
        c.common.controller.policy.max_hill_climb_steps = 0;
      });
  run("slope mapping instead of matching",
      [](DbExperimentConfig& c) {
        c.common.controller.policy.mapping = MappingAlgorithm::kSlopeBased;
      });
  run("4 buckets instead of 24",
      [](DbExperimentConfig& c) { c.common.controller.policy.target_buckets = 4; });
  run("48 buckets instead of 24",
      [](DbExperimentConfig& c) { c.common.controller.policy.target_buckets = 48; });
  run("no max-span rule (pure equal-population buckets)",
      [](DbExperimentConfig& c) {
        c.common.controller.policy.max_bucket_span_ms = 1e12;
      });
  run("one-hot table rows (no epsilon spread)",
      [](DbExperimentConfig& c) { c.table_epsilon = 0.0; });
  table.Render(std::cout);

  // Mapping-algorithm ablation on the oracle simulator, where the
  // difference is purely algorithmic (no testbed noise).
  std::cout << "\nOracle simulator (trace windows, page type 1):\n";
  const Trace& trace = StandardTrace();
  const auto records = trace.FilterByPage(PageType::kType1);
  const auto selector = PageQoeSelector();
  TextTable sim({"Mapping", "Mean QoE", "Gain over recorded (%)"});
  const auto recorded = ReshuffleWithinWindows(
      records, selector, ReshufflePolicy::kRecorded, kWindowMs);
  for (auto [name, policy] :
       {std::pair{"slope ranking", ReshufflePolicy::kSlopeRanked},
        std::pair{"optimal matching", ReshufflePolicy::kOptimalMatching}}) {
    const auto result =
        ReshuffleWithinWindows(records, selector, policy, kWindowMs);
    sim.AddRow({name, TextTable::Num(result.new_mean_qoe, 3),
                TextTable::Num(QoeGainPercent(recorded.new_mean_qoe,
                                              result.new_mean_qoe),
                               1)});
  }
  sim.Render(std::cout);
  return 0;
}
