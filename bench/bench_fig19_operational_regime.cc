// Figure 19: E2E's QoE gain as a function of three workload dimensions:
//  (a) mean server-side delay / mean external delay,
//  (b) stdev/mean of external delay,
//  (c) stdev/mean of server-side delay.
// Paper: gain is ~0 when there is no variability to exploit, then grows
// roughly linearly along each dimension; the production workload sits on
// the fast-growing part of each curve.
#include <cstddef>
#include <iostream>
#include <vector>

#include "common.h"
#include "testbed/counterfactual.h"
#include "testbed/workloads.h"

namespace {

using namespace e2e;
using namespace e2e::bench;

// Gain of the E2E (optimal matching) reshuffle over recorded delays on a
// synthetic workload — the paper's trace-driven simulator on normal delays.
double GainFor(const SyntheticWorkloadParams& params,
               const QoeModelSelector& selector) {
  const auto records = MakeSyntheticWorkload(params);
  // ~200-request windows keep the optimal matching tractable.
  const double window_ms = 4000.0;
  const auto recorded = ReshuffleWithinWindows(
      records, selector, ReshufflePolicy::kRecorded, window_ms);
  const auto e2e = ReshuffleWithinWindows(
      records, selector, ReshufflePolicy::kOptimalMatching, window_ms);
  return (e2e.new_mean_qoe - recorded.new_mean_qoe) / recorded.new_mean_qoe *
         100.0;
}

// Defaults matching page type 1's moments in the synthetic trace.
SyntheticWorkloadParams Defaults() {
  SyntheticWorkloadParams params;
  params.num_requests = 4000;
  params.external_mean_ms = 4300.0;
  params.external_cov = 0.9;
  params.server_mean_ms = 850.0;  // ratio ~0.2 (the trace's red spot).
  params.server_cov = 1.4;
  params.rps = 50.0;
  params.seed = kSeed + 19;
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {});
  (void)flags;

  PrintHeader("Figure 19 — Operational regime",
              "gain ~0 without variability, then grows with (a) server/"
              "external delay ratio, (b) external-delay CoV, (c) server-"
              "delay CoV; trace workload sits on the fast-growing part",
              "synthetic truncated-normal workloads, one dimension varied "
              "at a time around page-type-1 moments; E2E reshuffle gain");

  const auto selector = PageQoeSelector();

  // The trace-workload marker is keyed by sweep index, not by comparing
  // the loop's double against a literal (which detlint's float-eq flags).
  std::cout << "(a) Server-side / external delay ratio\n";
  TextTable table_a({"Ratio", "QoE gain (%)", ""});
  const std::vector<double> ratios = {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
  const std::size_t trace_ratio = 2;  // 0.2: the trace's red spot.
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    auto params = Defaults();
    params.server_mean_ms = params.external_mean_ms * ratios[i];
    table_a.AddRow({TextTable::Num(ratios[i], 2),
                    TextTable::Num(GainFor(params, selector), 1),
                    i == trace_ratio ? "<- our traces" : ""});
  }
  table_a.Render(std::cout);

  std::cout << "\n(b) Stdev over mean of external delay\n";
  TextTable table_b({"External CoV", "QoE gain (%)", ""});
  const std::vector<double> ext_covs = {0.1, 0.3, 0.5, 0.9, 1.3, 1.7, 2.0};
  const std::size_t trace_ext_cov = 3;  // 0.9: page type 1's moment.
  for (std::size_t i = 0; i < ext_covs.size(); ++i) {
    auto params = Defaults();
    params.external_cov = ext_covs[i];
    table_b.AddRow({TextTable::Num(ext_covs[i], 1),
                    TextTable::Num(GainFor(params, selector), 1),
                    i == trace_ext_cov ? "<- our traces" : ""});
  }
  table_b.Render(std::cout);

  std::cout << "\n(c) Stdev over mean of server-side delay\n";
  TextTable table_c({"Server CoV", "QoE gain (%)", ""});
  const std::vector<double> srv_covs = {0.1, 0.3, 0.6, 1.0, 1.4, 1.7, 2.0};
  const std::size_t trace_srv_cov = 4;  // 1.4: page type 1's moment.
  for (std::size_t i = 0; i < srv_covs.size(); ++i) {
    auto params = Defaults();
    params.server_cov = srv_covs[i];
    table_c.AddRow({TextTable::Num(srv_covs[i], 1),
                    TextTable::Num(GainFor(params, selector), 1),
                    i == trace_srv_cov ? "<- our traces" : ""});
  }
  table_c.Render(std::cout);
  return 0;
}
