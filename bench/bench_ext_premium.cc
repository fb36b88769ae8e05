// Extension (§9 "Interaction with existing policies"): compose E2E with an
// existing premium/basic subscription tier — "E2E can be applied separately
// to each priority class".
//
// Premium requests own the top half of the broker's priority levels and
// basic requests the bottom half; within each band, a per-class E2E
// controller orders requests by QoE sensitivity. The comparison is against
// the plain tiered policy (premium before basic, FIFO within each band).
#include <iostream>
#include <memory>
#include <set>

#include "broker/broker.h"
#include "common.h"
#include "core/controller.h"
#include "testbed/metrics.h"
#include "testbed/workloads.h"
#include "trace/replay.h"

namespace {

using namespace e2e;
using namespace e2e::bench;

constexpr int kLevelsPerClass = 4;

bool IsPremium(const TraceRecord& rec) { return rec.user_id % 5 == 0; }

// Priority = class band base + within-band decision from the class table.
class ClassAwareScheduler final : public broker::MessageScheduler {
 public:
  ClassAwareScheduler() = default;

  void SetClassTable(bool premium, const DecisionTable& table) {
    (premium ? premium_ : basic_) = table;
  }

  void MarkPremium(RequestId id, bool premium) {
    if (premium) premium_ids_.insert(id);
  }

  int AssignPriority(const broker::Message& message,
                     const broker::BrokerView& view) override {
    const bool premium = premium_ids_.contains(message.id);
    const DecisionTable& table = premium ? premium_ : basic_;
    const int within =
        table.rows.empty()
            ? 0
            : std::min(table.Lookup(message.external_delay_ms),
                       kLevelsPerClass - 1);
    const int base = premium ? 0 : kLevelsPerClass;
    return std::min<int>(base + within,
                         static_cast<int>(view.queue_depths.size()) - 1);
  }

  std::string Name() const override { return "class-aware-e2e"; }

 private:
  DecisionTable premium_;
  DecisionTable basic_;
  std::set<RequestId> premium_ids_;
};

struct ClassStats {
  double premium_qoe = 0.0;
  double basic_qoe = 0.0;
  double mean_qoe = 0.0;
};

ClassStats Stats(const ExperimentResult& result,
                 const std::vector<TraceRecord>& records) {
  std::set<RequestId> premium;
  for (const auto& r : records) {
    if (IsPremium(r)) premium.insert(r.request_id);
  }
  double sp = 0.0, sb = 0.0;
  int np = 0, nb = 0;
  for (const auto& o : result.outcomes) {
    if (premium.contains(o.id)) {
      sp += o.qoe;
      ++np;
    } else {
      sb += o.qoe;
      ++nb;
    }
  }
  return {np ? sp / np : 0.0, nb ? sb / nb : 0.0, result.mean_qoe};
}

// Runs the class-aware experiment with or without per-class E2E tables.
ExperimentResult RunClassAware(const std::vector<TraceRecord>& records,
                               const QoeModel& qoe, bool use_e2e) {
  EventLoop loop;
  broker::BrokerParams params;
  params.priority_levels = 2 * kLevelsPerClass;
  params.consume_interval_ms = 12.0;
  auto scheduler = std::make_shared<ClassAwareScheduler>();
  for (const auto& r : records) scheduler->MarkPremium(r.request_id, IsPremium(r));
  broker::MessageBroker broker(loop, params, scheduler);

  // Per-class controllers: each sees only its class's arrivals and owns a
  // 4-level band. The band's drain rate approximation: premium is served
  // first, so it sees the full consumer; basic sees what premium leaves.
  auto qoe_shared = std::shared_ptr<const QoeModel>(&qoe, [](auto*) {});
  ControllerConfig cc;
  cc.external.window_ms = 5000.0;
  cc.external.min_samples = 20;
  cc.policy.target_buckets = 10;
  const double premium_share = 0.2;
  auto premium_model = std::make_shared<PriorityQueueModel>(
      kLevelsPerClass, params.consume_interval_ms, 1);
  auto basic_model = std::make_shared<PriorityQueueModel>(
      kLevelsPerClass, params.consume_interval_ms / (1.0 - premium_share), 1);
  Controller premium_ctrl("premium", cc, qoe_shared, premium_model, 71);
  Controller basic_ctrl("basic", cc, qoe_shared, basic_model, 72);

  const auto schedule = BuildReplaySchedule(records, 1.0);
  ExperimentResult result;
  for (const auto& arrival : schedule) {
    loop.Schedule(arrival.testbed_time_ms, [&, arrival]() {
      const TraceRecord& rec = arrival.record;
      if (use_e2e) {
        (IsPremium(rec) ? premium_ctrl : basic_ctrl)
            .ObserveArrival(rec.external_delay_ms, loop.Now());
      }
      broker::Message message;
      message.id = rec.request_id;
      message.external_delay_ms = rec.external_delay_ms;
      broker.Publish(message, [&result, rec, &qoe](
                                  const broker::Delivery& delivery) {
        RequestOutcome outcome;
        outcome.id = rec.request_id;
        outcome.arrival_ms = delivery.publish_ms;
        outcome.external_delay_ms = rec.external_delay_ms;
        outcome.server_delay_ms = delivery.QueueingDelayMs();
        outcome.qoe = qoe.Qoe(rec.external_delay_ms + outcome.server_delay_ms);
        result.outcomes.push_back(outcome);
      });
    });
  }
  const double horizon = schedule.back().testbed_time_ms + 60000.0;
  if (use_e2e) {
    for (double t = 1000.0; t <= horizon; t += 1000.0) {
      loop.Schedule(t, [&]() {
        for (auto* ctrl : {&premium_ctrl, &basic_ctrl}) {
          if (ctrl->Tick(loop.Now())) {
            const DecisionTable* table = ctrl->CurrentTable();
            if (table != nullptr) {
              scheduler->SetClassTable(ctrl == &premium_ctrl, *table);
            }
          }
        }
      });
    }
  }
  loop.RunUntil(horizon);
  broker.StopConsumers();
  loop.Run();
  result.Finalize();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"rps"});
  const double rps = flags.GetDouble("rps", 88.0);

  PrintHeader("Extension — E2E composed with premium/basic tiers (Sec 9)",
              "E2E is compatible with existing prioritization: apply it "
              "separately per class",
              "broker with 8 priority levels; premium (20% of users) owns "
              "the top band; workload at " + TextTable::Num(rps, 0) +
                  " rps vs ~83/s capacity");

  SyntheticWorkloadParams workload;
  workload.num_requests = 10000;
  workload.rps = rps;
  workload.seed = kSeed + 53;
  const auto records = MakeSyntheticWorkload(workload);
  const QoeModel& qoe = QoeForPage(PageType::kType1);

  const auto tiered = Stats(RunClassAware(records, qoe, false), records);
  const auto composed = Stats(RunClassAware(records, qoe, true), records);

  TextTable table({"Policy", "Premium QoE", "Basic QoE", "Overall QoE"});
  table.AddRow({"tiers only (FIFO within band)",
                TextTable::Num(tiered.premium_qoe, 3),
                TextTable::Num(tiered.basic_qoe, 3),
                TextTable::Num(tiered.mean_qoe, 3)});
  table.AddRow({"tiers + per-class E2E",
                TextTable::Num(composed.premium_qoe, 3),
                TextTable::Num(composed.basic_qoe, 3),
                TextTable::Num(composed.mean_qoe, 3)});
  table.Render(std::cout);

  std::cout << "\nExpected shape: premium stays strictly better off than "
               "basic under both policies; adding per-class E2E lifts both "
               "classes (mostly basic, which has the congestion to "
               "reallocate).\n";
  return 0;
}
