#include "sim/event_loop.h"

#include <stdexcept>

namespace e2e {

EventId EventLoop::Schedule(double at_ms, Callback cb) {
  if (!(at_ms >= now_ms_)) {
    throw std::invalid_argument(
        "EventLoop::Schedule: time in the past or NaN");
  }
  if (!cb) {
    throw std::invalid_argument("EventLoop::Schedule: empty callback");
  }
  const EventId id = next_id_++;
  heap_.push(Entry{at_ms, next_seq_++, id});
  callbacks_.emplace(id, std::move(cb));
  ++live_pending_;
  if (metric_timer_lead_ != nullptr) {
    metric_timer_lead_->Observe(at_ms - now_ms_);
  }
  return id;
}

EventId EventLoop::ScheduleAfter(double delay_ms, Callback cb) {
  if (!(delay_ms >= 0.0)) {
    throw std::invalid_argument(
        "EventLoop::ScheduleAfter: negative or NaN delay");
  }
  return Schedule(now_ms_ + delay_ms, std::move(cb));
}

bool EventLoop::Cancel(EventId id) {
  const auto erased = callbacks_.erase(id);
  if (erased > 0) {
    --live_pending_;
    if (metric_cancelled_ != nullptr) metric_cancelled_->Increment();
  }
  return erased > 0;
}

bool EventLoop::Step() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    const auto it = callbacks_.find(top.id);
    if (it == callbacks_.end()) {
      heap_.pop();  // Cancelled; skip lazily.
      continue;
    }
    heap_.pop();
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    if (metric_events_ != nullptr) {
      metric_events_->Increment();
      // Depth includes the event about to run (live_pending_ not yet
      // decremented).
      metric_queue_depth_->Observe(static_cast<double>(live_pending_));
    }
    --live_pending_;
    now_ms_ = top.at_ms;
    ++processed_;
    cb();
    return true;
  }
  return false;
}

void EventLoop::Run() {
  while (Step()) {
  }
}

void EventLoop::AttachMetrics(obs::MetricsRegistry& registry) {
  metric_events_ = &registry.AddCounter("sim.loop.events");
  metric_cancelled_ = &registry.AddCounter("sim.loop.cancelled");
  metric_queue_depth_ = &registry.AddHistogram(
      "sim.loop.queue_depth",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
       4096.0, 16384.0, 65536.0});
  metric_timer_lead_ = &registry.AddHistogram(
      "sim.loop.timer_lead_ms",
      {0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
       5000.0, 10000.0, 30000.0, 60000.0});
}

void EventLoop::RunUntil(double until_ms) {
  if (!(until_ms >= now_ms_)) {
    throw std::invalid_argument(
        "EventLoop::RunUntil: time in the past or NaN");
  }
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    if (callbacks_.find(top.id) == callbacks_.end()) {
      heap_.pop();
      continue;
    }
    if (top.at_ms > until_ms) break;
    Step();
  }
  now_ms_ = until_ms;
}

}  // namespace e2e
