// Figure 21: E2E vs a Timecard-style deadline-driven scheduler, across
// total-delay deadlines of 2.0 / 3.4 / 5.9 s.
// Paper: E2E's QoE gain is consistently higher at every deadline, because
// the deadline scheduler is blind to the different QoE sensitivities of
// requests that already exceeded the deadline.
#include <iostream>
#include <vector>

#include "common.h"
#include "testbed/metrics.h"

int main(int argc, char** argv) {
  using namespace e2e;
  using namespace e2e::bench;
  const Flags flags(argc, argv, {});
  (void)flags;

  PrintHeader("Figure 21 — E2E vs deadline-driven scheduling (Timecard)",
              "E2E beats Timecard at deadlines 2.0/3.4/5.9 s",
              "RabbitMQ testbed at the reference speed-up; gains relative "
              "to FIFO");

  const auto& slice = TestbedSlice();
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  const auto fifo = RunBrokerExperiment(
      slice, qoe,
      StandardBrokerConfig(BrokerPolicy::kDefault, kBrokerReferenceSpeedup));
  const auto e2e = RunBrokerExperiment(
      slice, qoe,
      StandardBrokerConfig(BrokerPolicy::kE2e, kBrokerReferenceSpeedup));
  const double e2e_gain = QoeGainPercent(fifo.mean_qoe, e2e.mean_qoe);

  TextTable table({"Deadline (s)", "Timecard gain (%)", "E2E gain (%)",
                   "Winner"});
  for (double deadline_s : {2.0, 3.4, 5.9}) {
    auto config =
        StandardBrokerConfig(BrokerPolicy::kDeadline, kBrokerReferenceSpeedup);
    config.deadline_ms = SecToMs(deadline_s);
    config.deadline_max_slack_ms = SecToMs(deadline_s) * 1.2;
    const auto timecard = RunBrokerExperiment(slice, qoe, config);
    const double tc_gain = QoeGainPercent(fifo.mean_qoe, timecard.mean_qoe);
    table.AddRow({TextTable::Num(deadline_s, 1), TextTable::Num(tc_gain, 1),
                  TextTable::Num(e2e_gain, 1),
                  e2e_gain >= tc_gain ? "E2E" : "Timecard"});
  }
  table.Render(std::cout);

  std::cout << "\nTimecard treats every request past its deadline alike; "
               "E2E keeps discriminating by QoE sensitivity (paper Sec 7.4).\n";
  return 0;
}
