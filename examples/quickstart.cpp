// Quickstart: the E2E controller in ~60 lines.
//
// Build a QoE model, profile a backend offline, feed the controller a
// window of requests, and read QoE-aware decisions from the cached table.
//
//   ./examples/quickstart [--requests=500]
#include <iostream>
#include <memory>

#include "core/controller.h"
#include "core/profiler.h"
#include "qoe/sigmoid_model.h"
#include "util/clock.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace e2e;
  const Flags flags(argc, argv, {"requests"});
  const int requests = flags.GetInt("requests", 500);

  // 1. A QoE model: the paper's sigmoid time-on-site curve (Fig. 3a).
  auto qoe = std::make_shared<const SigmoidQoeModel>(
      SigmoidQoeModel::TraceTimeOnSite());

  // 2. A server-side delay model: profile one replica offline at
  //    {5%,...,100%} of its maximum request rate (Sec 6), then share the
  //    profile across 3 replicas.
  ProfilerConfig profiler;
  profiler.max_rps = 60.0;
  auto server_model = std::make_shared<const ProfiledReplicaModel>(
      3, ProfileServerOffline(profiler));

  // 3. The controller, wired with both models.
  ControllerConfig config;
  config.external.window_ms = 5000.0;
  config.policy.target_buckets = 12;
  // The real clock is opt-in (sim runs inject virtual time so replay is
  // byte-exact); here we want the latency line to show real microseconds.
  Controller controller("quickstart", config, qoe, server_model, /*seed=*/42,
                        &RealClock::Instance());

  // 4. Feed it a window of request arrivals (external delays in ms).
  Rng rng(7);
  for (int i = 0; i < requests; ++i) {
    controller.ObserveArrival(rng.LogNormal(8.13, 0.79),
                              5000.0 * i / requests);
  }
  controller.Tick(5000.0);  // Window closes; the decision table is built.

  // 5. Ask for decisions: which replica should serve each request?
  std::cout << "Decision lookup table (external delay -> replica):\n";
  TextTable table({"External delay (ms)", "Replica"});
  for (double c : {300.0, 1500.0, 2500.0, 3500.0, 5000.0, 8000.0, 15000.0}) {
    table.AddRow({TextTable::Num(c, 0),
                  std::to_string(controller.Decide(c))});
  }
  table.Render(std::cout);

  const DecisionTable* t = controller.CurrentTable();
  std::cout << "\nPlanned load split across replicas:";
  for (double f : t->load_fractions) std::cout << " " << TextTable::Pct(f * 100);
  std::cout << "\nExpected mean QoE: " << TextTable::Num(t->objective_value, 3)
            << "\nMean decision latency: "
            << TextTable::Num(controller.stats().MeanLookupWallUs(), 2)
            << " us/request\n";
  return 0;
}
