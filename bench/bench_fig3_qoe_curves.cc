// Figure 3: sigmoid-like QoE vs page-load time.
//  (a) trace analysis — normalized time-on-site bucketed by PLT;
//  (b) MTurk study — 1-5 grades for the same page.
// Paper anchors: flat below ~2 s, steep drop peaking near ~2-3 s,
// insensitive again past ~5.8 s, gradual tail decline to 24 s.
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "common.h"
#include "qoe/mturk.h"
#include "qoe/session.h"
#include "qoe/sigmoid_model.h"
#include "qoe/tabulated_model.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"raters"});

  PrintHeader("Figure 3 — QoE vs page load time",
              "sigmoid curve; sensitive region ~[2.0 s, 5.8 s]; QoE keeps "
              "declining gradually past the region",
              "(a) sessions of page type 1 from the synthetic trace, "
              "time-on-site bucketed by PLT; (b) simulated 50-rater MTurk "
              "panel with Appendix-B validation");

  // --- (a) Trace pipeline -------------------------------------------------
  const Trace& trace = StandardTrace();
  const auto qoe_truth = std::make_shared<const SigmoidQoeModel>(
      SigmoidQoeModel::TraceTimeOnSite());
  const SessionModel session(qoe_truth, SessionModelParams{});
  std::vector<std::pair<DelayMs, double>> samples;
  for (const auto& r : trace.FilterByPage(PageType::kType1)) {
    samples.emplace_back(r.TotalDelayMs(),
                         session.NormalizeTimeOnSite(r.time_on_site_sec));
  }
  const auto model = TabulatedQoeModel::FromSamples(
      "fig3a", samples, /*min_bucket_count=*/std::max<std::size_t>(
                            250, samples.size() / 40));

  std::cout << "(a) Trace analysis (" << samples.size() << " page loads)\n";
  TextTable curve_a({"PLT (s)", "QoE (normalized)", "std err", "bucket size"});
  std::vector<double> ys;
  for (const auto& point : model.points()) {
    curve_a.AddRow({TextTable::Num(MsToSec(point.delay_ms), 2),
                    TextTable::Num(point.mean_qoe, 3),
                    TextTable::Num(point.std_error, 4),
                    TextTable::Int((long long)point.count)});
    ys.push_back(point.mean_qoe);
  }
  curve_a.Render(std::cout);
  std::cout << AsciiChart(ys) << "\n";
  std::cout << "Detected sensitive region: ["
            << TextTable::Num(MsToSec(model.SensitiveLo()), 1) << " s, "
            << TextTable::Num(MsToSec(model.SensitiveHi()), 1)
            << " s] (paper: [2.0 s, 5.8 s])\n\n";

  // --- (b) MTurk study -----------------------------------------------------
  const auto grade_truth = SigmoidQoeModel::MTurkMicrosoftPage();
  MTurkStudyParams params;
  params.num_raters = flags.GetInt("raters", 50);
  Rng rng(kSeed + 3);
  const auto study = RunMTurkStudy(grade_truth, params, rng);
  std::cout << "(b) MTurk study (" << params.num_raters << " raters; "
            << study.raters_dropped_engagement
            << " dropped for engagement, " << study.raters_dropped_outlier
            << " as outliers)\n";
  TextTable curve_b({"PLT (s)", "Mean grade (1-5)", "std err", "responses"});
  std::vector<double> gys;
  for (const auto& point : study.curve) {
    curve_b.AddRow({TextTable::Num(point.plt_sec, 1),
                    TextTable::Num(point.mean_grade, 2),
                    TextTable::Num(point.std_error, 3),
                    TextTable::Int((long long)point.responses)});
    gys.push_back(point.mean_grade);
  }
  curve_b.Render(std::cout);
  std::cout << AsciiChart(gys) << "\n";
  return 0;
}
