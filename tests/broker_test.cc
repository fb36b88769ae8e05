#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "broker/broker.h"
#include "broker/scheduler.h"
#include "sim/event_loop.h"

namespace e2e::broker {
namespace {

BrokerParams FastParams() {
  BrokerParams params;
  params.priority_levels = 4;
  params.consume_interval_ms = 5.0;
  params.handling_cost_ms = 0.5;
  return params;
}

TEST(FifoScheduler, SinglePriority) {
  FifoScheduler scheduler;
  BrokerView view{.queue_depths = {0, 0, 0}};
  EXPECT_EQ(scheduler.AssignPriority(Message{}, view), 0);
  EXPECT_THROW(scheduler.AssignPriority(Message{}, BrokerView{}),
               std::invalid_argument);
}

TEST(MessageBroker, FifoDeliversInPublishOrder) {
  EventLoop loop;
  MessageBroker broker(loop, FastParams(),
                       std::make_shared<FifoScheduler>());
  std::vector<RequestId> delivered;
  loop.Schedule(0.0, [&] {
    for (RequestId id = 1; id <= 5; ++id) {
      broker.Publish(Message{.id = id},
                     [&](const Delivery& d) { delivered.push_back(d.message.id); });
    }
  });
  loop.RunUntil(100.0);
  broker.StopConsumers();
  loop.Run();
  EXPECT_EQ(delivered, (std::vector<RequestId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(broker.delivered_count(), 5u);
}

TEST(MessageBroker, OneMessagePerPullInterval) {
  EventLoop loop;
  MessageBroker broker(loop, FastParams(),
                       std::make_shared<FifoScheduler>());
  std::vector<double> deliver_times;
  loop.Schedule(0.0, [&] {
    for (int i = 0; i < 4; ++i) {
      broker.Publish(Message{.id = static_cast<RequestId>(i)},
                     [&](const Delivery& d) {
                       deliver_times.push_back(d.deliver_ms);
                     });
    }
  });
  loop.RunUntil(100.0);
  broker.StopConsumers();
  loop.Run();
  ASSERT_EQ(deliver_times.size(), 4u);
  for (std::size_t i = 1; i < deliver_times.size(); ++i) {
    EXPECT_NEAR(deliver_times[i] - deliver_times[i - 1], 5.0, 1e-9);
  }
}

TEST(MessageBroker, HigherPriorityDrainsFirst) {
  EventLoop loop;
  auto table = std::make_shared<TableScheduler>("t");
  // Sensitive band (2000-5800) gets priority 0; the rest priority 3.
  table->SetTable({.rows = {{.lo = 0.0, .hi = 2000.0, .decision = 3},
                            {.lo = 2000.0, .hi = 5800.0, .decision = 0},
                            {.lo = 5800.0, .hi = 1e9, .decision = 3}},
                   .load_fractions = std::vector<double>(4)});
  MessageBroker broker(loop, FastParams(), table);
  std::vector<RequestId> delivered;
  loop.Schedule(0.0, [&] {
    broker.Publish(Message{.id = 1, .external_delay_ms = 500.0},
                   [&](const Delivery& d) { delivered.push_back(d.message.id); });
    broker.Publish(Message{.id = 2, .external_delay_ms = 9000.0},
                   [&](const Delivery& d) { delivered.push_back(d.message.id); });
    broker.Publish(Message{.id = 3, .external_delay_ms = 3000.0},
                   [&](const Delivery& d) { delivered.push_back(d.message.id); });
  });
  loop.RunUntil(100.0);
  broker.StopConsumers();
  loop.Run();
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[0], 3u);  // Sensitive request jumps the queue.
}

TEST(MessageBroker, QueueingDelayTracked) {
  EventLoop loop;
  MessageBroker broker(loop, FastParams(),
                       std::make_shared<FifoScheduler>());
  std::vector<double> delays;
  loop.Schedule(0.0, [&] {
    for (int i = 0; i < 10; ++i) {
      broker.Publish(Message{}, [&](const Delivery& d) {
        delays.push_back(d.QueueingDelayMs());
      });
    }
  });
  loop.RunUntil(200.0);
  broker.StopConsumers();
  loop.Run();
  // Pull k (1-based) comes k intervals after the publish, plus the
  // handling cost.
  ASSERT_EQ(delays.size(), 10u);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_NEAR(delays[i], 5.0 * static_cast<double>(i + 1) + 0.5, 1e-9);
  }
}

TEST(MessageBroker, ViewReportsDepths) {
  EventLoop loop;
  auto table = std::make_shared<TableScheduler>("t");
  table->SetTable({.rows = {{.lo = 0.0, .hi = 1e9, .decision = 2}},
                   .load_fractions = std::vector<double>(3)});
  MessageBroker broker(loop, FastParams(), table);
  loop.Schedule(0.0, [&] {
    broker.Publish(Message{}, nullptr);
    broker.Publish(Message{}, nullptr);
    const BrokerView view = broker.View();
    EXPECT_EQ(view.queue_depths[2], 2);
    EXPECT_EQ(view.queue_depths[0], 0);
  });
  loop.RunUntil(1.0);
  broker.StopConsumers();
  loop.Run();
}

TEST(MessageBroker, InvalidConstructionThrows) {
  EventLoop loop;
  BrokerParams bad = FastParams();
  bad.priority_levels = 0;
  EXPECT_THROW(MessageBroker(loop, bad, std::make_shared<FifoScheduler>()),
               std::invalid_argument);
  bad = FastParams();
  bad.consume_interval_ms = 0.0;
  EXPECT_THROW(MessageBroker(loop, bad, std::make_shared<FifoScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(MessageBroker(loop, FastParams(), nullptr),
               std::invalid_argument);
}

TEST(TableScheduler, FallsBackToFifoWithoutTable) {
  TableScheduler scheduler("t");
  BrokerView view{.queue_depths = {0, 0}};
  EXPECT_EQ(scheduler.AssignPriority(Message{.external_delay_ms = 9999.0},
                                     view),
            0);
  EXPECT_FALSE(scheduler.HasTable());
}

TEST(TableScheduler, ClampsPriorityToLevels) {
  TableScheduler scheduler("t");
  scheduler.SetTable({.rows = {{.lo = 0.0, .hi = 1e9, .decision = 7}},
                      .load_fractions = std::vector<double>(8)});
  BrokerView view{.queue_depths = {0, 0, 0}};  // Only 3 levels.
  EXPECT_EQ(scheduler.AssignPriority(Message{}, view), 2);
}

TEST(TableScheduler, RejectsBadTables) {
  TableScheduler scheduler("t");
  EXPECT_THROW(
      scheduler.SetTable({.rows = {{.lo = 5.0, .hi = 9.0, .decision = 0},
                                   {.lo = 1.0, .hi = 5.0, .decision = 1}},
                          .load_fractions = std::vector<double>(2)}),
      std::invalid_argument);
  EXPECT_THROW(
      scheduler.SetTable({.rows = {{.lo = 0.0, .hi = 1.0, .decision = -1}},
                          .load_fractions = std::vector<double>(1)}),
      std::invalid_argument);
}

TEST(DeadlineScheduler, SmallerSlackGetsHigherPriority) {
  DeadlineScheduler scheduler(3400.0, 4000.0);
  BrokerView view{.queue_depths = {0, 0, 0, 0, 0, 0, 0, 0}};
  const int urgent = scheduler.AssignPriority(
      Message{.external_delay_ms = 3200.0}, view);  // 200 ms slack.
  const int relaxed = scheduler.AssignPriority(
      Message{.external_delay_ms = 500.0}, view);  // 2900 ms slack.
  EXPECT_LT(urgent, relaxed);
}

TEST(DeadlineScheduler, ExpiredRequestsAllShareLowestPriority) {
  DeadlineScheduler scheduler(2000.0, 4000.0);
  BrokerView view{.queue_depths = {0, 0, 0, 0}};
  const int a = scheduler.AssignPriority(
      Message{.external_delay_ms = 2500.0}, view);
  const int b = scheduler.AssignPriority(
      Message{.external_delay_ms = 25000.0}, view);
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 3);  // The deadline policy cannot tell these apart (§7.4).
}

TEST(DeadlineScheduler, InvalidParamsThrow) {
  EXPECT_THROW(DeadlineScheduler(0.0, 100.0), std::invalid_argument);
  EXPECT_THROW(DeadlineScheduler(100.0, 0.0), std::invalid_argument);
}

TEST(MessageBroker, TryPullReturnsHighestPriority) {
  EventLoop loop;
  BrokerParams params = FastParams();
  params.num_consumers = 1;
  auto table = std::make_shared<TableScheduler>("t");
  table->SetTable({.rows = {{.lo = 0.0, .hi = 1000.0, .decision = 2},
                            {.lo = 1000.0, .hi = 1e9, .decision = 0}},
                   .load_fractions = std::vector<double>(3)});
  MessageBroker broker(loop, params, table);
  broker.StopConsumers();  // Drive manually.
  loop.Schedule(0.0, [&] {
    broker.Publish(Message{.id = 1, .external_delay_ms = 500.0}, nullptr);
    broker.Publish(Message{.id = 2, .external_delay_ms = 2000.0}, nullptr);
    auto first = broker.TryPull();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->message.id, 2u);  // Priority 0 before priority 2.
    auto second = broker.TryPull();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->message.id, 1u);
    EXPECT_FALSE(broker.TryPull().has_value());
  });
  loop.Run();
}

}  // namespace
}  // namespace e2e::broker
