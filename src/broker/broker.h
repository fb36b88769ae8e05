// Message broker with priority queues (the paper's RabbitMQ use case, §6).
//
// Publishers hand messages to the broker; a MessageScheduler fixed at
// construction (the paper's queue_bind policy hook) assigns each message a
// priority level; consumers pull one message per fixed interval (the paper:
// every 5 ms), always draining higher priorities first. A per-message
// confirm callback (the paper's confirm_delivery change) reports the
// queueing delay, which is the server-side delay of this use case. The
// confirms and the optional telemetry histogram are the only record of it.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "broker/scheduler.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "util/rng.h"
#include "util/types.h"

namespace e2e::broker {

/// Broker configuration. Defaults follow §7.1: one consumer pulling every
/// 5 ms, 1 KiB messages.
struct BrokerParams {
  int priority_levels = 8;
  int num_consumers = 1;
  double consume_interval_ms = 5.0;
  /// Fixed per-message handling cost added to the queueing delay.
  double handling_cost_ms = 0.5;
};

/// Active broker fault state (driven by fault::FaultInjector). Messages are
/// dropped at publish with `drop_probability`; every delivery is delayed by
/// `extra_delay_ms` on top of the handling cost; `consume_slowdown`
/// multiplies the consumer pull interval (overload broker xF), so queues
/// drain F times slower while it is active.
struct BrokerFaults {
  double drop_probability = 0.0;
  double extra_delay_ms = 0.0;
  double consume_slowdown = 1.0;
};

/// Delivery confirmation for one message.
struct Delivery {
  Message message;
  int priority = 0;
  double publish_ms = 0.0;
  double deliver_ms = 0.0;

  /// The broker-induced (server-side) delay.
  DelayMs QueueingDelayMs() const { return deliver_ms - publish_ms; }
};

/// The broker. Consumers start pulling on construction and stop when the
/// broker is destroyed or StopConsumers() is called.
class MessageBroker {
 public:
  using ConfirmCallback = std::function<void(const Delivery&)>;

  /// `loop` must outlive the broker.
  MessageBroker(EventLoop& loop, BrokerParams params,
                std::shared_ptr<MessageScheduler> scheduler);
  ~MessageBroker();

  MessageBroker(const MessageBroker&) = delete;
  MessageBroker& operator=(const MessageBroker&) = delete;

  /// Publishes a message; `confirm` fires when a consumer delivers it.
  /// Returns false when fault injection dropped the message at publish
  /// (resilience::RetryPolicy callers re-publish on false), true otherwise.
  bool Publish(const Message& message, ConfirmCallback confirm);

  /// Publishes at an explicit priority level, bypassing the scheduler
  /// (admission-control downgrades). Still subject to fault drops; returns
  /// false when dropped. Throws on a bad priority.
  bool PublishWithPriority(const Message& message, int priority,
                           ConfirmCallback confirm);

  /// Current queue depths per priority level (0 = highest priority).
  BrokerView View() const;

  /// Stops the consumer timers (pending messages stay queued).
  void StopConsumers();

  /// Pulls the highest-priority queued message now, outside the consumer
  /// timers (the experiments drain a stopped broker's backlog with it).
  /// The message confirms as a timer pull would. Returns nullopt when every
  /// queue is empty.
  std::optional<Delivery> TryPull();

  /// Fault injection: replaces the active fault state. Throws when the drop
  /// probability is outside [0, 1] or the extra delay is negative.
  void SetFaults(const BrokerFaults& faults);
  const BrokerFaults& faults() const { return faults_; }

  /// Reseeds the deterministic stream deciding which messages drop.
  void SetFaultSeed(std::uint64_t seed) { fault_rng_ = Rng(seed); }

  /// Fires (synchronously, at publish time) for every dropped message, so
  /// experiments can account for the loss. The publish time is Now().
  using DropCallback = std::function<void(const Message&, double publish_ms)>;
  void SetDropCallback(DropCallback callback) {
    drop_callback_ = std::move(callback);
  }

  /// Messages delivered so far.
  std::uint64_t delivered_count() const { return delivered_; }

  int priority_levels() const { return params_.priority_levels; }

  /// Attaches telemetry (docs/OBSERVABILITY.md) under `prefix`:
  /// <prefix>.published / .delivered / .dropped / .fault_delay_hits
  /// counters, a <prefix>.queueing_delay_ms histogram, and one
  /// <prefix>.queue_depth.p<i> histogram per priority level (depths
  /// sampled on every consumer pull). `registry` must outlive the broker.
  void AttachMetrics(obs::MetricsRegistry& registry,
                     const std::string& prefix = "broker");

 private:
  struct Queued {
    Message message;
    ConfirmCallback confirm;
    double publish_ms;
    int priority;
  };

  void ScheduleNextPull(int consumer);
  void PullOne(int consumer);
  void Enqueue(const Message& message, int priority, ConfirmCallback confirm);

  EventLoop& loop_;
  BrokerParams params_;
  std::shared_ptr<MessageScheduler> scheduler_;
  std::vector<std::deque<Queued>> queues_;  // queues_[0] = highest priority.
  std::vector<EventId> consumer_timers_;
  bool stopped_ = false;
  std::uint64_t delivered_ = 0;
  BrokerFaults faults_;
  Rng fault_rng_{0x5eedULL};
  DropCallback drop_callback_;
  // Telemetry (null until AttachMetrics; hot paths pay one branch each).
  obs::Counter* metric_published_ = nullptr;
  obs::Counter* metric_delivered_ = nullptr;
  obs::Counter* metric_dropped_ = nullptr;
  obs::Counter* metric_fault_delay_hits_ = nullptr;
  obs::Histogram* metric_queueing_delay_ = nullptr;
  std::vector<obs::Histogram*> metric_queue_depth_;  // One per priority.
};

}  // namespace e2e::broker
