// perfbench_selftest: the benchmark's own unit tests — the percentile rule,
// the metric-name grammar, the result line and the decorators' pass-through.
// Exits 0 when every check passes; prints each failure otherwise.
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/server_delay_model.h"
#include "layers.h"
#include "ledger.h"
#include "qoe/sigmoid_model.h"

namespace e2e::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL " << what << "\n";
  }
}

template <typename F>
bool Throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void TestTailPercentile() {
  // The tail is the highest percentile that leaves >= 10 samples beyond it.
  Expect(TailPercentile(99) == 0.0, "99 samples: no tail beyond the median");
  Expect(TailPercentile(100) == 90.0, "100 samples: p90");
  Expect(TailPercentile(999) == 90.0, "999 samples: p90");
  Expect(TailPercentile(1000) == 99.0, "1000 samples: p99");
  Expect(TailPercentile(10000) == 99.9, "10000 samples: p99.9");
  for (const std::size_t n : {100u, 105u, 1000u, 4321u, 26000u}) {
    const double p = TailPercentile(n);
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    const double beyond = static_cast<double>(n) - 1.0 - Percentile(v, p);
    Expect(beyond >= 10.0, "tail leaves >= 10 samples at n=" +
                               std::to_string(n));
  }
  Expect(PercentileLabel(90.0) == "p90" && PercentileLabel(99.0) == "p99" &&
             PercentileLabel(99.9) == "p99.9",
         "percentile labels");
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(Percentile(v, 50.0) == 50.0, "nearest-rank p50 of 1..100");
  Expect(Percentile(v, 90.0) == 90.0, "nearest-rank p90 of 1..100");
  Expect(Percentile(v, 100.0) == 100.0, "p100 is the maximum");
  Expect(Median({3.0}) == 3.0, "median of one sample");
  Expect(Median({1.0, 2.0}) == 1.0, "nearest-rank median of two");
  Expect(Throws([] { Median({}); }), "median of nothing throws");
  Expect(Throws([] { Percentile({1.0}, 0.0); }), "p0 throws");
}

void TestNameGrammar() {
  for (const char* ok : {"setup_s", "core.policy.solve_us.p50", "qoe.s",
                         "9lives", "a-b_c.d"}) {
    Expect(IsValidMetricName(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "a\"b"}) {
    Expect(!IsValidMetricName(bad), std::string("invalid name '") + bad + "'");
  }
  Expect(IsValidMetricName(std::string(64, 'a')), "64-letter name");
  Expect(!IsValidMetricName(std::string(65, 'a')), "65-letter name");
  for (const char* ok : {"s", "ms", "1/s", "%", "count", "MB"}) {
    Expect(IsValidUnit(ok), std::string("valid unit ") + ok);
  }
  for (const char* bad : {"", "m s", "seconds_and_more_", "µs"}) {
    Expect(!IsValidUnit(bad), std::string("invalid unit '") + bad + "'");
  }
  // Every declared metric obeys the grammar and is unique.
  for (const auto* names : {&EndToEndMetricNames(), &PerLayerMetricNames()}) {
    Ledger ledger;
    for (const std::string& name : *names) {
      Expect(!Throws([&] { ledger.Add(name, 1.0, "s"); }),
             "declared metric " + name);
    }
  }
}

void TestLedgerAndResultLine() {
  Ledger ledger;
  ledger.Add("run_s", 1.25, "s");
  ledger.Add("mean_qoe", 0.1, "qoe");
  Expect(Throws([&] { ledger.Add("run_s", 2.0, "s"); }), "duplicate throws");
  Expect(Throws([&] { ledger.Add("nan", std::nan(""), "s"); }),
         "non-finite throws");
  Expect(Throws([&] { ledger.Add("x", 1.0, "bad unit"); }), "bad unit throws");
  RunOutcome outcome;
  outcome.Attempt(10);
  Expect(ResultLine(outcome, ledger, {"run_s", "mean_qoe"}) ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
             "\"mean_qoe\": {\"value\": 0.10000000000000001, \"unit\": "
             "\"qoe\"}}}",
         "result line format");
  Expect(Throws([&] { ResultLine(outcome, ledger, {"absent"}); }),
         "result line with a missing metric throws");
  outcome.Check(false, "broken");
  Expect(!outcome.correct() && outcome.failed() == 1,
         "a failed check is a failed operation");
}

void TestDecoratorsPassThrough() {
  LoadProfile profile;
  profile.max_rps = 100.0;
  for (int level = 1; level <= 4; ++level) {
    profile.level_rps.push_back(25.0 * level);
    const double base = 10.0 * level;
    profile.delays.emplace_back(std::vector<double>{base, 2.0 * base},
                                std::vector<double>{0.5, 0.5});
  }
  profile.max_stable_rps = 80.0;
  const ProfiledReplicaModel g(3, profile);
  CallLedger g_calls;
  const TracedServerModel traced_g(g, g_calls);
  Expect(traced_g.NumDecisions() == 3 && traced_g.Name() == g.Name(),
         "G decorator forwards shape and name");
  const std::vector<double> split = {0.5, 0.3, 0.2};
  for (const double rps : {10.0, 90.0, 400.0}) {
    for (int d = 0; d < 3; ++d) {
      Expect(traced_g.DelayDistribution(d, split, rps).Mean() ==
                 g.DelayDistribution(d, split, rps).Mean(),
             "G decorator forwards DelayDistribution");
      Expect(traced_g.IsOverloaded(d, split, rps) ==
                 g.IsOverloaded(d, split, rps),
             "G decorator forwards IsOverloaded");
    }
  }
  Expect(g_calls.calls == 9 && g_calls.overload_calls == 9 &&
             g_calls.seconds > 0.0,
         "G decorator counts and times its calls");

  const QoeModelPtr q = std::make_shared<const SigmoidQoeModel>(
      SigmoidQoeModel::TraceTimeOnSite());
  CallLedger q_calls;
  const TracedQoeModel traced_q(q, q_calls);
  Expect(traced_q.Name() == q->Name() && traced_q.MaxQoe() == q->MaxQoe() &&
             traced_q.SensitiveLo() == q->SensitiveLo() &&
             traced_q.SensitiveHi() == q->SensitiveHi(),
         "QoE decorator forwards the model's shape");
  for (const double delay : {0.0, 1500.0, 3000.0, 9000.0}) {
    Expect(traced_q.Qoe(delay) == q->Qoe(delay) &&
               traced_q.Derivative(delay) == q->Derivative(delay),
           "QoE decorator forwards Qoe and Derivative");
  }
  Expect(q_calls.calls == 8, "QoE decorator counts its calls");
}

}  // namespace
}  // namespace e2e::perfbench

int main() {
  using namespace e2e::perfbench;
  TestTailPercentile();
  TestPercentile();
  TestNameGrammar();
  TestLedgerAndResultLine();
  TestDecoratorsPassThrough();
  if (failures != 0) {
    std::cout << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_selftest: all checks passed\n";
  return 0;
}
