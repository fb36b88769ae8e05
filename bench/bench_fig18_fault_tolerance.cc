// Figure 18: QoE-gain time series across an E2E-controller failure.
// Paper: primary fails at t=25 s; clients keep using the cached lookup
// table (gain dips but stays above the default policy); a backup is elected
// by t=50 s and by t=75 s decisions match the no-failure run.
//
// The failure scenario is described by a fault plan (docs/FAULTS.md) rather
// than hand-rolled toggles; pass --fault_plan="..." to drive the same
// experiment through any other scenario the grammar can express.
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "common.h"
#include "fault/plan.h"
#include "testbed/metrics.h"

namespace {

using namespace e2e;
using namespace e2e::bench;

// Mean QoE per time bucket (served requests only).
std::map<int, double> QoePerBucket(const ExperimentResult& result,
                                   double bucket_ms) {
  std::map<int, std::pair<double, int>> sums;
  for (const auto& o : result.outcomes) {
    if (!o.Served()) continue;
    auto& [sum, count] = sums[static_cast<int>(o.arrival_ms / bucket_ms)];
    sum += o.qoe;
    ++count;
  }
  std::map<int, double> means;
  for (const auto& [bucket, sc] : sums) {
    means[bucket] = sc.first / sc.second;
  }
  return means;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"fail_at_ms", "election_ms", "bucket_ms", "fault_plan",
                     "metrics_out", "resilience"});
  double fail_at = flags.GetDouble("fail_at_ms", 25000.0);
  double election = flags.GetDouble("election_ms", 25000.0);
  const double bucket_ms = flags.GetDouble("bucket_ms", 10000.0);

  // Default plan: the paper's scenario — crash the primary at t=25 s with a
  // 25 s election window.
  std::ostringstream default_plan;
  default_plan << "crash ctrl t=" << fail_at << "ms for=" << election << "ms";
  const std::string plan_spec =
      flags.GetString("fault_plan", default_plan.str());
  fault::FaultPlan plan;
  try {
    plan = fault::FaultPlan::Parse(plan_spec);
  } catch (const std::invalid_argument& error) {
    std::cerr << "bad --fault_plan: " << error.what() << "\n";
    return 2;
  }

  // The phase column tracks the plan's (first) crash clause.
  for (const auto& spec : plan.faults) {
    if (spec.kind == fault::FaultKind::kCrashController) {
      fail_at = spec.start_ms;
      election = spec.end_ms - spec.start_ms;
      break;
    }
  }

  PrintHeader("Figure 18 — Tolerating controller failure",
              "stale cached table keeps beating the default during the "
              "outage; backup elected ~25 s later restores full gains",
              "db testbed at the reference speed-up; fault plan \"" +
                  plan.ToString() + "\"");

  const auto& slice = TestbedSlice();
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  const bool telemetry = TelemetryRequested(flags);
  // --resilience=on additionally protects the no-failure runs; the failing
  // run is always benchmarked both ways (the on/off columns below).
  const bool resilience_on = ResilienceRequested(flags);
  auto default_config = StandardDbConfig(DbPolicy::kDefault, kDbReferenceSpeedup);
  default_config.common.collect_telemetry = telemetry;
  auto healthy_config = StandardDbConfig(DbPolicy::kE2e, kDbReferenceSpeedup);
  healthy_config.common.collect_telemetry = telemetry;
  if (resilience_on) {
    default_config.common.resilience = StandardResilience(Testbed::kDb);
    healthy_config.common.resilience = StandardResilience(Testbed::kDb);
  }
  const auto def = RunDbExperiment(slice, qoe, default_config);
  const auto healthy = RunDbExperiment(slice, qoe, healthy_config);
  auto failing_config = StandardDbConfig(DbPolicy::kE2e, kDbReferenceSpeedup);
  failing_config.common.collect_telemetry = telemetry;
  failing_config.common.fault_plan = plan;
  auto resilient_config = failing_config;
  resilient_config.common.resilience = StandardResilience(Testbed::kDb);
  // Fifth run: the same failing scenario with the processor-sharing cloning
  // model deriving the hedge gates per window (the static knobs stay as the
  // floor — docs/RESILIENCE.md "Model-driven cloning").
  auto model_config = failing_config;
  model_config.common.resilience = resilience::ResilienceConfig::ModelDriven();
  ExperimentResult failing;
  ExperimentResult resilient;
  ExperimentResult model;
  try {
    failing = RunDbExperiment(slice, qoe, failing_config);
    resilient = RunDbExperiment(slice, qoe, resilient_config);
    model = RunDbExperiment(slice, qoe, model_config);
  } catch (const std::invalid_argument& error) {
    // E.g. a plan clause targeting a component this testbed does not have.
    std::cerr << "bad --fault_plan: " << error.what() << "\n";
    return 2;
  }

  WriteTelemetrySidecar(flags, "db.default", def);
  WriteTelemetrySidecar(flags, "db.healthy", healthy);
  WriteTelemetrySidecar(flags, "db.failing", failing);
  WriteTelemetrySidecar(flags, "db.resilient", resilient);
  WriteTelemetrySidecar(flags, "db.model", model);

  const auto def_buckets = QoePerBucket(def, bucket_ms);
  const auto healthy_buckets = QoePerBucket(healthy, bucket_ms);
  const auto failing_buckets = QoePerBucket(failing, bucket_ms);
  const auto resilient_buckets = QoePerBucket(resilient, bucket_ms);
  const auto model_buckets = QoePerBucket(model, bucket_ms);

  TextTable table({"t (s)", "Gain w/o failure (%)", "Gain w/ failure (%)",
                   "w/ failure+resilience (%)", "w/model-driven-hedging (%)",
                   "Phase"});
  std::vector<double> series;
  const int last_bucket = static_cast<int>(120000.0 / bucket_ms);
  for (int b = 0; b <= last_bucket; ++b) {
    const auto d = def_buckets.find(b);
    const auto h = healthy_buckets.find(b);
    const auto f = failing_buckets.find(b);
    const auto r = resilient_buckets.find(b);
    const auto m = model_buckets.find(b);
    if (d == def_buckets.end() || h == healthy_buckets.end() ||
        f == failing_buckets.end() || r == resilient_buckets.end() ||
        m == model_buckets.end()) {
      continue;
    }
    const double t_s = (b + 0.5) * bucket_ms / 1000.0;
    const double gain_h = QoeGainPercent(d->second, h->second);
    const double gain_f = QoeGainPercent(d->second, f->second);
    const double gain_r = QoeGainPercent(d->second, r->second);
    const double gain_m = QoeGainPercent(d->second, m->second);
    std::string phase = "healthy";
    if (t_s * 1000.0 >= fail_at && t_s * 1000.0 < fail_at + election) {
      phase = "FAILED (stale cache)";
    } else if (t_s * 1000.0 >= fail_at + election) {
      phase = "backup promoted";
    }
    table.AddRow({TextTable::Num(t_s, 0), TextTable::Num(gain_h, 1),
                  TextTable::Num(gain_f, 1), TextTable::Num(gain_r, 1),
                  TextTable::Num(gain_m, 1), phase});
    series.push_back(gain_f);
  }
  table.Render(std::cout);
  std::cout << AsciiChart(series) << "\n";

  std::cout << "Injected faults:\n";
  for (const auto& injected : failing.injected_faults) {
    std::cout << "  t=" << TextTable::Num(injected.at_ms / 1000.0, 1) << "s  "
              << injected.description << "\n";
  }

  std::cout << "Whole-run mean QoE: default "
            << TextTable::Num(def.mean_qoe, 3) << ", E2E w/o failure "
            << TextTable::Num(healthy.mean_qoe, 3) << ", E2E w/ failure "
            << TextTable::Num(failing.mean_qoe, 3)
            << " (failure costs little; the cached table keeps serving)\n";

  const ResilienceStats& rs = resilient.resilience;
  std::cout << "Resilience on (failing run): mean QoE "
            << TextTable::Num(resilient.mean_qoe, 3) << " vs "
            << TextTable::Num(failing.mean_qoe, 3) << " off; decisions: "
            << rs.retries << " retries, " << rs.hedges_issued << " hedges ("
            << rs.hedges_won << " won), " << rs.shed << " shed, "
            << rs.downgraded << " downgraded, " << rs.breaker_opens
            << " breaker opens\n";

  const ResilienceStats& ms = model.resilience;
  std::cout << "Model-driven hedging (failing run): mean QoE "
            << TextTable::Num(model.mean_qoe, 3) << " ("
            << ms.hedges_issued << " hedges, " << ms.hedges_won << " won, "
            << ms.model_recomputes << " model windows)\n";
  return 0;
}
