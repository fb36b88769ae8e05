#include "broker/broker.h"

#include <stdexcept>
#include <utility>

namespace e2e::broker {

MessageBroker::MessageBroker(EventLoop& loop, BrokerParams params,
                             std::shared_ptr<MessageScheduler> scheduler)
    : loop_(loop), params_(params), scheduler_(std::move(scheduler)) {
  if (params_.priority_levels < 1) {
    throw std::invalid_argument("MessageBroker: priority_levels < 1");
  }
  if (params_.num_consumers < 1) {
    throw std::invalid_argument("MessageBroker: num_consumers < 1");
  }
  if (params_.consume_interval_ms <= 0.0) {
    throw std::invalid_argument("MessageBroker: consume_interval_ms <= 0");
  }
  if (scheduler_ == nullptr) {
    throw std::invalid_argument("MessageBroker: null scheduler");
  }
  queues_.resize(static_cast<std::size_t>(params_.priority_levels));
  consumer_timers_.resize(static_cast<std::size_t>(params_.num_consumers), 0);
  for (int c = 0; c < params_.num_consumers; ++c) {
    ScheduleNextPull(c);
  }
}

MessageBroker::~MessageBroker() { StopConsumers(); }

void MessageBroker::StopConsumers() {
  if (stopped_) return;
  stopped_ = true;
  for (EventId id : consumer_timers_) {
    // A timer that already fired makes Cancel() a no-op; either way the
    // consumer is stopped, so the result is deliberately discarded.
    if (id != 0) (void)loop_.Cancel(id);
  }
}

void MessageBroker::ScheduleNextPull(int consumer) {
  if (stopped_) return;
  consumer_timers_[static_cast<std::size_t>(consumer)] =
      loop_.ScheduleAfter(params_.consume_interval_ms *
                              faults_.consume_slowdown,
                          [this, consumer]() { PullOne(consumer); });
}

void MessageBroker::PullOne(int consumer) {
  TryPull();
  ScheduleNextPull(consumer);
}

void MessageBroker::AttachMetrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) {
  metric_published_ = &registry.AddCounter(prefix + ".published");
  metric_delivered_ = &registry.AddCounter(prefix + ".delivered");
  metric_dropped_ = &registry.AddCounter(prefix + ".dropped");
  metric_fault_delay_hits_ =
      &registry.AddCounter(prefix + ".fault_delay_hits");
  metric_queueing_delay_ = &registry.AddHistogram(
      prefix + ".queueing_delay_ms",
      {1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
       5000.0, 10000.0, 30000.0, 60000.0});
  metric_queue_depth_.clear();
  for (int p = 0; p < params_.priority_levels; ++p) {
    metric_queue_depth_.push_back(&registry.AddHistogram(
        prefix + ".queue_depth.p" + std::to_string(p),
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
         1024.0}));
  }
}

std::optional<Delivery> MessageBroker::TryPull() {
  if (metric_queueing_delay_ != nullptr) {
    for (std::size_t p = 0; p < queues_.size(); ++p) {
      metric_queue_depth_[p]->Observe(static_cast<double>(queues_[p].size()));
    }
  }
  for (auto& queue : queues_) {
    if (queue.empty()) continue;
    Queued item = std::move(queue.front());
    queue.pop_front();
    Delivery delivery;
    delivery.message = item.message;
    delivery.priority = item.priority;
    delivery.publish_ms = item.publish_ms;
    delivery.deliver_ms =
        loop_.Now() + params_.handling_cost_ms + faults_.extra_delay_ms;
    ++delivered_;
    if (metric_delivered_ != nullptr) {
      metric_delivered_->Increment();
      metric_queueing_delay_->Observe(delivery.QueueingDelayMs());
      if (faults_.extra_delay_ms > 0.0) metric_fault_delay_hits_->Increment();
    }
    if (item.confirm) {
      loop_.Schedule(delivery.deliver_ms, [confirm = std::move(item.confirm),
                                           delivery]() { confirm(delivery); });
    }
    return delivery;
  }
  return std::nullopt;
}

void MessageBroker::SetFaults(const BrokerFaults& faults) {
  if (faults.drop_probability < 0.0 || faults.drop_probability > 1.0) {
    throw std::invalid_argument("MessageBroker::SetFaults: bad probability");
  }
  if (faults.extra_delay_ms < 0.0) {
    throw std::invalid_argument("MessageBroker::SetFaults: negative delay");
  }
  if (faults.consume_slowdown < 1.0) {
    throw std::invalid_argument("MessageBroker::SetFaults: slowdown < 1");
  }
  faults_ = faults;
}

bool MessageBroker::Publish(const Message& message, ConfirmCallback confirm) {
  if (faults_.drop_probability > 0.0 &&
      fault_rng_.Bernoulli(faults_.drop_probability)) {
    if (metric_dropped_ != nullptr) metric_dropped_->Increment();
    if (drop_callback_) drop_callback_(message, loop_.Now());
    return false;
  }
  if (metric_published_ != nullptr) metric_published_->Increment();
  const BrokerView view = View();
  int priority = scheduler_->AssignPriority(message, view);
  if (priority < 0 || priority >= params_.priority_levels) {
    throw std::out_of_range("MessageBroker::Publish: scheduler returned " +
                            std::to_string(priority));
  }
  Enqueue(message, priority, std::move(confirm));
  return true;
}

bool MessageBroker::PublishWithPriority(const Message& message, int priority,
                                        ConfirmCallback confirm) {
  if (priority < 0 || priority >= params_.priority_levels) {
    throw std::out_of_range("MessageBroker::PublishWithPriority: bad priority");
  }
  if (faults_.drop_probability > 0.0 &&
      fault_rng_.Bernoulli(faults_.drop_probability)) {
    if (metric_dropped_ != nullptr) metric_dropped_->Increment();
    if (drop_callback_) drop_callback_(message, loop_.Now());
    return false;
  }
  if (metric_published_ != nullptr) metric_published_->Increment();
  Enqueue(message, priority, std::move(confirm));
  return true;
}

void MessageBroker::Enqueue(const Message& message, int priority,
                            ConfirmCallback confirm) {
  Queued item;
  item.message = message;
  item.confirm = std::move(confirm);
  item.publish_ms = loop_.Now();
  item.priority = priority;
  queues_[static_cast<std::size_t>(priority)].push_back(std::move(item));
}

BrokerView MessageBroker::View() const {
  BrokerView view;
  view.queue_depths.reserve(queues_.size());
  for (const auto& queue : queues_) {
    view.queue_depths.push_back(static_cast<int>(queue.size()));
  }
  return view;
}

}  // namespace e2e::broker
