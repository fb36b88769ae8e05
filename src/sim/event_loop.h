// Deterministic discrete-event simulator.
//
// The testbed (DESIGN.md §1) runs the database replicas, broker consumers,
// and trace replay on a virtual clock: events fire in (time, insertion)
// order, so whole experiments are bit-reproducible from a seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"

namespace e2e {

/// Identifier of a scheduled event (usable with Cancel()).
using EventId = std::uint64_t;

/// A virtual-time event loop. Not thread-safe; a simulation is single-
/// threaded by design.
class EventLoop {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` at absolute virtual time `at_ms` (must be >= Now();
  /// NaN throws). Events with equal times run in scheduling order. Returns
  /// an id that can be passed to Cancel().
  EventId Schedule(double at_ms, Callback cb);

  /// Schedules `cb` after a relative delay (>= 0; NaN throws) from Now().
  EventId ScheduleAfter(double delay_ms, Callback cb);

  /// Cancels a pending event; returns false when the event already ran,
  /// was cancelled, or never existed. Callers that do not care must say so
  /// with a (void) cast — detlint's ignored-status rule flags silent drops.
  [[nodiscard]] bool Cancel(EventId id);

  /// Current virtual time in milliseconds.
  double Now() const { return now_ms_; }

  /// Runs until no events remain.
  void Run();

  /// Runs events with time <= `until_ms`, then advances the clock to
  /// exactly `until_ms`. Throws when `until_ms` is before Now() or NaN.
  void RunUntil(double until_ms);

  /// Runs at most one event; returns false when none remain.
  bool Step();

  /// Number of events executed so far.
  std::uint64_t processed_count() const { return processed_; }

  /// Number of events currently pending (excluding cancelled ones lazily
  /// still in the heap).
  std::size_t pending_count() const { return live_pending_; }

  /// Attaches telemetry (docs/OBSERVABILITY.md): sim.loop.events and
  /// sim.loop.cancelled counters, sim.loop.queue_depth (live pending events
  /// observed as each event fires) and sim.loop.timer_lead_ms (how far
  /// ahead of Now() each event is scheduled). There is no fire-*latency*
  /// metric because in virtual time it is structurally zero: Step() sets
  /// the clock to exactly the event's scheduled time. `registry` must
  /// outlive the loop; a disabled registry hands back scrap instruments.
  void AttachMetrics(obs::MetricsRegistry& registry);

 private:
  struct Entry {
    double at_ms;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };

  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_pending_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  // Callbacks keyed by id; erased on run/cancel. Cancelled heap entries are
  // skipped lazily.
  std::unordered_map<EventId, Callback> callbacks_;
  // Telemetry (null until AttachMetrics; hot paths pay one branch each).
  obs::Counter* metric_events_ = nullptr;
  obs::Counter* metric_cancelled_ = nullptr;
  obs::Histogram* metric_queue_depth_ = nullptr;
  obs::Histogram* metric_timer_lead_ = nullptr;
};

/// Exposes an EventLoop's virtual time as a cost-accounting Clock, so
/// components that profile themselves (the Controller's budget accounting)
/// measure sim time instead of wall time and replay byte-identically.
/// Within one event the loop's clock does not advance, so intervals
/// measured around synchronous work are exactly zero — deterministic.
class EventLoopClock final : public Clock {
 public:
  explicit EventLoopClock(const EventLoop& loop) : loop_(&loop) {}
  double NowMicros() const override { return loop_->Now() * 1000.0; }

 private:
  const EventLoop* loop_;
};

}  // namespace e2e
