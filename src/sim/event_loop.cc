#include "sim/event_loop.h"

#include <limits>
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
  if (free_slots_.empty()) {
    if (slots_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::overflow_error("EventLoop::Schedule: slot index overflow");
    }
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  Slot& s = slots_[slot];
  // Generation 0 means the slot's counter wrapped; reissuing the slot could
  // alias an id handed out 2^32 - 1 events ago.
  if (s.generation == 0) {
    throw std::overflow_error("EventLoop::Schedule: generation overflow");
  }
  free_slots_.pop_back();
  s.cb = std::move(cb);
  const Entry entry{at_ms, next_seq_++, slot, s.generation};
  if (fifo_.empty() || at_ms >= fifo_.back().at_ms) {
    fifo_.push_back(entry);
  } else {
    heap_.push(entry);
  }
  ++live_pending_;
  if (metric_timer_lead_ != nullptr) {
    metric_timer_lead_->Observe(at_ms - now_ms_);
  }
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

EventId EventLoop::ScheduleAfter(double delay_ms, Callback cb) {
  if (!(delay_ms >= 0.0)) {
    throw std::invalid_argument(
        "EventLoop::ScheduleAfter: negative or NaN delay");
  }
  return Schedule(now_ms_ + delay_ms, std::move(cb));
}

bool EventLoop::Cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  // A free slot already carries the generation of its next event, so an
  // id that was never issued can match it; only a held callback is live.
  if (s.generation != static_cast<std::uint32_t>(id >> 32) || !s.cb) {
    return false;
  }
  Release(slot);
  --live_pending_;
  if (metric_cancelled_ != nullptr) metric_cancelled_->Increment();
  return true;
}

void EventLoop::Release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  ++s.generation;
  free_slots_.push_back(slot);
}

EventLoop::Store EventLoop::NextStore() {
  while (!fifo_.empty() && !Live(fifo_.front())) fifo_.pop_front();
  while (!heap_.empty() && !Live(heap_.top())) heap_.pop();
  if (heap_.empty()) return fifo_.empty() ? Store::kNone : Store::kFifo;
  if (fifo_.empty()) return Store::kHeap;
  return Later{}(fifo_.front(), heap_.top()) ? Store::kHeap : Store::kFifo;
}

void EventLoop::Fire(Store store) {
  const Entry next = Head(store);
  if (store == Store::kFifo) {
    fifo_.pop_front();
  } else {
    heap_.pop();
  }
  // Moved out before the call: the callback may schedule, which can grow
  // slots_ or reuse this slot.
  Callback cb = std::move(slots_[next.slot].cb);
  Release(next.slot);
  if (metric_events_ != nullptr) {
    metric_events_->Increment();
    // Depth includes the event about to run (live_pending_ not yet
    // decremented).
    metric_queue_depth_->Observe(static_cast<double>(live_pending_));
  }
  --live_pending_;
  now_ms_ = next.at_ms;
  ++processed_;
  cb();
}

bool EventLoop::Step() {
  const Store store = NextStore();
  if (store == Store::kNone) return false;
  Fire(store);
  return true;
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
  for (Store store = NextStore();
       store != Store::kNone && Head(store).at_ms <= until_ms;
       store = NextStore()) {
    Fire(store);
  }
  now_ms_ = until_ms;
}

}  // namespace e2e
