// Figure 14: overall QoE improvement of E2E and the slope-based policy over
// the default policy, plus the idealized zero-server-delay upper bound.
//  (a) trace-driven simulator over the three page types;
//  (b) Cassandra-like and RabbitMQ-like testbeds at 20x speed-up.
// Paper: traces 12.6-15.4% (E2E) vs 4-8% (slope); E2E captures 74.1-83.9%
// of the idealized gain; similar on both testbeds.
#include <iostream>
#include <vector>

#include "common.h"
#include "testbed/counterfactual.h"
#include "testbed/metrics.h"

namespace {

using namespace e2e;
using namespace e2e::bench;

double IdealizedQoe(std::span<const TraceRecord> records,
                    const QoeModel& qoe) {
  double total = 0.0;
  for (const auto& r : records) total += qoe.Qoe(r.external_delay_ms);
  return total / static_cast<double>(records.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"window_ms", "db_speedup", "broker_speedup", "metrics_out",
                     "resilience"});
  const double window_ms = flags.GetDouble("window_ms", kWindowMs);
  const double db_speedup = flags.GetDouble("db_speedup", kDbReferenceSpeedup);
  const double broker_speedup =
      flags.GetDouble("broker_speedup", kBrokerReferenceSpeedup);

  PrintHeader("Figure 14 — Overall QoE gain over the default policy",
              "traces: E2E 12.6-15.4%, slope-based 4-8%, E2E captures "
              "74-84% of idealized; testbeds show similar gains at 20x",
              "(a) windowed re-assignment simulator on the synthetic trace; "
              "(b) db/broker testbeds replaying the 4pm page-type-1 slice at "
              "capacity-calibrated speed-ups (see EXPERIMENTS.md)");

  // ---- (a) Traces --------------------------------------------------------
  std::cout << "(a) Trace-driven simulator\n";
  TextTable table_a({"Page type", "Slope-based (%)", "E2E (%)",
                     "Idealized (%)", "E2E / idealized"});
  const Trace& trace = StandardTrace();
  for (int p = 0; p < kNumPageTypes; ++p) {
    const PageType page = PageTypeFromIndex(p);
    const auto records = trace.FilterByPage(page);
    const QoeModel& qoe = QoeForPage(page);
    const auto selector = PageQoeSelector();

    const auto recorded = ReshuffleWithinWindows(
        records, selector, ReshufflePolicy::kRecorded, window_ms);
    const auto slope = ReshuffleWithinWindows(
        records, selector, ReshufflePolicy::kSlopeRanked, window_ms);
    const auto optimal = ReshuffleWithinWindows(
        records, selector, ReshufflePolicy::kOptimalMatching, window_ms);
    const double ideal = IdealizedQoe(records, qoe);

    const double g_slope =
        QoeGainPercent(recorded.new_mean_qoe, slope.new_mean_qoe);
    const double g_e2e =
        QoeGainPercent(recorded.new_mean_qoe, optimal.new_mean_qoe);
    const double g_ideal = QoeGainPercent(recorded.new_mean_qoe, ideal);
    table_a.AddRow({ToString(page), TextTable::Num(g_slope, 1),
                    TextTable::Num(g_e2e, 1), TextTable::Num(g_ideal, 1),
                    TextTable::Pct(g_e2e / g_ideal * 100.0)});
  }
  table_a.Render(std::cout);

  // ---- (b) Testbeds -------------------------------------------------------
  std::cout << "\n(b) Testbeds (db " << db_speedup << "x, broker "
            << broker_speedup << "x)\n";
  const auto& slice = TestbedSlice();
  const QoeModel& qoe = QoeForPage(PageType::kType1);
  const double ideal_qoe = IdealizedQoe(slice, qoe);

  TextTable table_b({"System", "Default QoE", "Slope (%)", "E2E (%)",
                     "Idealized (%)"});
  const bool telemetry = TelemetryRequested(flags);
  // --resilience=on runs each testbed with every mechanism it has
  // (docs/RESILIENCE.md); decision counters land in the telemetry sidecars.
  const bool resilience_on = ResilienceRequested(flags);
  {
    auto config_for = [&](DbPolicy policy) {
      auto config = StandardDbConfig(policy, db_speedup);
      config.common.collect_telemetry = telemetry;
      if (resilience_on) {
        config.common.resilience = StandardResilience(Testbed::kDb);
      }
      return config;
    };
    const auto def =
        RunDbExperiment(slice, qoe, config_for(DbPolicy::kDefault));
    const auto slope = RunDbExperiment(slice, qoe, config_for(DbPolicy::kSlope));
    const auto e2e = RunDbExperiment(slice, qoe, config_for(DbPolicy::kE2e));
    WriteTelemetrySidecar(flags, "db.default", def);
    WriteTelemetrySidecar(flags, "db.slope", slope);
    WriteTelemetrySidecar(flags, "db.e2e", e2e);
    table_b.AddRow({"Cassandra (replica selection)",
                    TextTable::Num(def.mean_qoe, 3),
                    TextTable::Num(QoeGainPercent(def.mean_qoe,
                                                  slope.mean_qoe), 1),
                    TextTable::Num(QoeGainPercent(def.mean_qoe, e2e.mean_qoe),
                                   1),
                    TextTable::Num(QoeGainPercent(def.mean_qoe, ideal_qoe),
                                   1)});
  }
  {
    auto config_for = [&](BrokerPolicy policy) {
      auto config = StandardBrokerConfig(policy, broker_speedup);
      config.common.collect_telemetry = telemetry;
      if (resilience_on) {
        config.common.resilience = StandardResilience(Testbed::kBroker);
      }
      return config;
    };
    const auto def =
        RunBrokerExperiment(slice, qoe, config_for(BrokerPolicy::kDefault));
    const auto slope =
        RunBrokerExperiment(slice, qoe, config_for(BrokerPolicy::kSlope));
    const auto e2e =
        RunBrokerExperiment(slice, qoe, config_for(BrokerPolicy::kE2e));
    WriteTelemetrySidecar(flags, "broker.default", def);
    WriteTelemetrySidecar(flags, "broker.slope", slope);
    WriteTelemetrySidecar(flags, "broker.e2e", e2e);
    table_b.AddRow({"RabbitMQ (message scheduling)",
                    TextTable::Num(def.mean_qoe, 3),
                    TextTable::Num(QoeGainPercent(def.mean_qoe,
                                                  slope.mean_qoe), 1),
                    TextTable::Num(QoeGainPercent(def.mean_qoe, e2e.mean_qoe),
                                   1),
                    TextTable::Num(QoeGainPercent(def.mean_qoe, ideal_qoe),
                                   1)});
  }
  table_b.Render(std::cout);
  std::cout << "\nExpected shape: E2E > slope-based > 0 everywhere; E2E a "
               "large fraction of idealized.\n";
  return 0;
}
