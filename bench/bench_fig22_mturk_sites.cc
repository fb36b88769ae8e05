// Figure 22: MTurk QoE curves (grade 1-5 vs page load time) for Amazon,
// CNN, Google, and YouTube homepages/search pages.
// Paper: every site yields a sigmoid-like curve; sensitivity-region
// boundaries vary by site (search pages steepest/earliest).
#include <iostream>
#include <vector>

#include "common.h"
#include "qoe/mturk.h"
#include "qoe/sigmoid_model.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {"raters"});
  const int raters = flags.GetInt("raters", 50);

  PrintHeader("Figure 22 — MTurk QoE curves for four popular sites",
              "sigmoid-like grade curves everywhere; region boundaries "
              "differ per site",
              "simulated 50-rater panels per site with Appendix-B "
              "engagement/outlier validation");

  struct Site {
    const char* name;
    SigmoidQoeModel model;
  };
  const std::vector<Site> sites = {{"Amazon", SigmoidQoeModel::Amazon()},
                                   {"CNN", SigmoidQoeModel::Cnn()},
                                   {"Google", SigmoidQoeModel::Google()},
                                   {"YouTube", SigmoidQoeModel::Youtube()}};

  Rng rng(kSeed + 22);
  for (const auto& site : sites) {
    MTurkStudyParams params;
    params.num_raters = raters;
    const auto study = RunMTurkStudy(site.model, params, rng);
    std::cout << "(" << site.name << ")  raters kept: "
              << raters - study.raters_dropped_engagement -
                     study.raters_dropped_outlier
              << "/" << raters << "; detected sensitive region ["
              << TextTable::Num(MsToSec(site.model.SensitiveLo()), 1) << " s, "
              << TextTable::Num(MsToSec(site.model.SensitiveHi()), 1)
              << " s]\n";
    TextTable table({"PLT (s)", "Mean grade", "std err", "responses"});
    std::vector<double> ys;
    for (const auto& point : study.curve) {
      table.AddRow({TextTable::Num(point.plt_sec, 1),
                    TextTable::Num(point.mean_grade, 2),
                    TextTable::Num(point.std_error, 3),
                    TextTable::Int((long long)point.responses)});
      ys.push_back(point.mean_grade);
    }
    table.Render(std::cout);
    std::cout << AsciiChart(ys, 6) << "\n";
  }
  return 0;
}
