// Extension (§9 "Incentives" + "Security threat" + Appendix A):
//  1. Incentive: an ISP that *inflates* its users' external delays cannot
//     improve their QoE (Theorem 1) — the would-be gamers only hurt
//     themselves.
//  2. Attack: a coordinated group *reporting* sensitive-looking external
//     delays (without actually having them) can steal priority from honest
//     users; the paper proposes detecting abnormal changes of the
//     external-delay distribution — our J-S staleness machinery does
//     exactly that.
#include <iostream>
#include <vector>

#include "common.h"
#include "stats/divergence.h"
#include "testbed/broker_experiment.h"
#include "testbed/workloads.h"
#include "util/rng.h"

namespace {

using namespace e2e;
using namespace e2e::bench;

// Rewrites a fraction of records: the attackers *claim* mid-region
// (sensitive) external delays. `actually_change` controls whether their
// true delays change too (incentive study) or only the reported ones
// (attack study).
std::vector<TraceRecord> WithAttackers(std::vector<TraceRecord> records,
                                       double fraction, Rng& rng,
                                       std::vector<bool>& is_attacker) {
  is_attacker.assign(records.size(), false);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (rng.Bernoulli(fraction)) {
      is_attacker[i] = true;
      records[i].external_delay_ms = rng.Uniform(2800.0, 4200.0);
    }
  }
  return records;
}

double MeanQoeOf(const ExperimentResult& result,
                 const std::vector<bool>& is_attacker, bool attackers,
                 std::span<const TraceRecord> originals,
                 const QoeModel& qoe, bool use_true_external) {
  // Outcomes arrive out of order; index originals by request id.
  std::vector<double> true_external(originals.size() + 2, 0.0);
  for (const auto& r : originals) {
    true_external[static_cast<std::size_t>(r.request_id)] =
        r.external_delay_ms;
  }
  double sum = 0.0;
  int count = 0;
  for (const auto& o : result.outcomes) {
    const auto idx = static_cast<std::size_t>(o.id - 1);
    if (idx >= is_attacker.size() || is_attacker[idx] != attackers) continue;
    const double c = use_true_external
                         ? true_external[static_cast<std::size_t>(o.id)]
                         : o.external_delay_ms;
    sum += qoe.Qoe(c + o.server_delay_ms);
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"attackers"});
  const double attacker_fraction = flags.GetDouble("attackers", 0.3);

  PrintHeader("Extension — Gaming and attacks (Sec 9, Appendix A)",
              "Theorem 1: no QoE gain without actually lowering external "
              "delays; proposed attack detection: watch the external-delay "
              "distribution for abnormal change",
              "broker testbed; " + TextTable::Pct(attacker_fraction * 100) +
                  " of requests claim sensitive-region external delays");

  SyntheticWorkloadParams workload;
  workload.num_requests = 10000;
  workload.rps = 88.0;  // Just past the broker's ~83/s capacity.
  workload.seed = kSeed + 41;
  const auto honest = MakeSyntheticWorkload(workload);
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  BrokerExperimentConfig config;
  config.policy = BrokerPolicy::kE2e;
  config.common.speedup = 1.0;
  config.broker.priority_levels = 8;
  config.broker.consume_interval_ms = 12.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 12;

  // Baseline: everyone honest.
  const auto baseline = RunBrokerExperiment(honest, qoe, config);

  // Attack: a fraction reports sensitive-looking delays. Their *true*
  // external delays (and hence true QoE) are unchanged.
  Rng rng(kSeed + 43);
  std::vector<bool> is_attacker;
  const auto attacked_records =
      WithAttackers(honest, attacker_fraction, rng, is_attacker);
  const auto attacked = RunBrokerExperiment(attacked_records, qoe, config);

  const double honest_before =
      MeanQoeOf(baseline, is_attacker, false, honest, qoe, true);
  const double honest_after =
      MeanQoeOf(attacked, is_attacker, false, honest, qoe, true);
  const double attacker_before =
      MeanQoeOf(baseline, is_attacker, true, honest, qoe, true);
  const double attacker_after =
      MeanQoeOf(attacked, is_attacker, true, honest, qoe, true);

  TextTable table({"Group", "True QoE, all honest", "True QoE, under attack",
                   "Change"});
  table.AddRow({"honest users", TextTable::Num(honest_before, 3),
                TextTable::Num(honest_after, 3),
                TextTable::Num(honest_after - honest_before, 3)});
  table.AddRow({"attackers", TextTable::Num(attacker_before, 3),
                TextTable::Num(attacker_after, 3),
                TextTable::Num(attacker_after - attacker_before, 3)});
  table.Render(std::cout);

  // Detection: J-S divergence between honest and attacked reported
  // distributions vs the divergence between two honest windows.
  std::vector<double> honest_ext, attacked_ext, honest_ext2;
  for (std::size_t i = 0; i < honest.size(); ++i) {
    (i % 2 == 0 ? honest_ext : honest_ext2)
        .push_back(honest[i].external_delay_ms);
    if (i % 2 == 0) {
      attacked_ext.push_back(attacked_records[i].external_delay_ms);
    }
  }
  const double js_normal =
      JsDivergenceOfSamples(honest_ext, honest_ext2, 0.0, 30000.0, 16);
  const double js_attack =
      JsDivergenceOfSamples(honest_ext2, attacked_ext, 0.0, 30000.0, 16);
  std::cout << "\nDetection signal (J-S divergence of reported external "
               "delays):\n  honest window vs honest window: "
            << TextTable::Num(js_normal, 4)
            << "\n  honest window vs attacked window: "
            << TextTable::Num(js_attack, 4) << "  ("
            << TextTable::Num(js_attack / std::max(js_normal, 1e-6), 0)
            << "x the normal level -> flagged)\n";
  return 0;
}
