// Deterministic discrete-event simulator.
//
// The testbed (DESIGN.md §1) runs the database replicas, broker consumers,
// and trace replay on a virtual clock: events fire in (time, insertion)
// order, so whole experiments are bit-reproducible from a seed.
//
// An event costs no hashing and no node allocation (docs/PERFORMANCE.md §7).
// Callbacks live in a vector of slots reused through a free list, and each
// queued entry carries its slot and the slot's generation, so an entry is
// live exactly while the generations match. Entries are held in two stores:
// an in-order FIFO, which takes every event at or after its last entry's
// time (pre-scheduled arrivals, periodic timers), and a binary heap for the
// rest. The next event is whichever head comes first in (time, insertion)
// order; since that order is strict and total, the firing sequence does not
// depend on which store holds an entry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"

namespace e2e {

/// Identifier of a scheduled event (usable with Cancel()). Never 0, so
/// callers may use 0 to mean "no event", and never reused within a loop.
using EventId = std::uint64_t;

/// A virtual-time event loop. Not thread-safe; a simulation is single-
/// threaded by design.
class EventLoop {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` at absolute virtual time `at_ms` (must be >= Now();
  /// NaN throws). Events with equal times run in scheduling order. Returns
  /// an id that can be passed to Cancel(). Throws std::overflow_error
  /// rather than issue an id that could alias another event's: once one
  /// slot has held 2^32 − 1 events, or when a 2^32nd slot is needed.
  EventId Schedule(double at_ms, Callback cb);

  /// Schedules `cb` after a relative delay (>= 0; NaN throws) from Now().
  EventId ScheduleAfter(double delay_ms, Callback cb);

  /// Cancels a pending event; returns false when the event already ran,
  /// was cancelled, or never existed (id 0 included). Callers that do not
  /// care must say so with a (void) cast — detlint's ignored-status rule
  /// flags silent drops.
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

  /// Number of events currently pending. Cancelled events are not counted,
  /// though their entries stay queued until they reach a store's head.
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
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };
  // A callback and the generation of the event that holds (or will next
  // hold) it. The generation advances when the event fires or is
  // cancelled, which retires every entry and id that carries the old one.
  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;
  };
  enum class Store { kNone, kFifo, kHeap };

  bool Live(const Entry& e) const {
    return slots_[e.slot].generation == e.generation;
  }
  // Drops cancelled entries from both heads and names the store whose head
  // fires next (kNone when nothing is pending).
  Store NextStore();
  const Entry& Head(Store store) const {
    return store == Store::kFifo ? fifo_.front() : heap_.top();
  }
  // Pops the head of `store` and runs its callback.
  void Fire(Store store);
  // Empties the slot, retires its generation and returns it to the free
  // list.
  void Release(std::uint32_t slot);

  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_pending_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Sorted by (time, insertion) by construction; a deque so that consumed
  // entries are released as the loop advances.
  std::deque<Entry> fifo_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
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
