#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "proptest.h"
#include "sim/event_loop.h"
#include "sim/server.h"

namespace e2e {
namespace {

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(30.0, [&] { order.push_back(3); });
  loop.Schedule(10.0, [&] { order.push_back(1); });
  loop.Schedule(20.0, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.Now(), 30.0);
  EXPECT_EQ(loop.processed_count(), 3u);
}

TEST(EventLoop, EqualTimesRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Scheduling order breaks ties even when the later event is scheduled after
// everything ahead of it was cancelled and the loop has advanced.
TEST(EventLoop, EqualTimesRunInScheduleOrderAcrossCancels) {
  EventLoop loop;
  std::vector<int> order;
  const EventId late = loop.Schedule(10.0, [&] { order.push_back(0); });
  loop.Schedule(5.0, [&] { order.push_back(1); });
  EXPECT_TRUE(loop.Cancel(late));
  loop.RunUntil(3.0);
  loop.Schedule(5.0, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  std::vector<double> times;
  loop.Schedule(1.0, [&] {
    times.push_back(loop.Now());
    loop.ScheduleAfter(2.0, [&] { times.push_back(loop.Now()); });
  });
  loop.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.Schedule(5.0, [&] { ++fired; });
  loop.Schedule(6.0, [&] { ++fired; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // Double-cancel is a no-op.
  loop.Run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(10.0, [&] { ++fired; });
  loop.Schedule(20.0, [&] { ++fired; });
  loop.RunUntil(15.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.Now(), 15.0);
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

// Regression: an event scheduled exactly at until_ms *by a callback running
// at until_ms* must still fire within the same RunUntil call — RunUntil
// re-reads the next event after every callback, so boundary-time chains
// drain before the clock pins to until_ms.
TEST(EventLoop, RunUntilFiresBoundaryEventsScheduledByCallbacks) {
  EventLoop loop;
  std::vector<std::string> fired;
  loop.Schedule(10.0, [&] {
    fired.push_back("first");
    loop.Schedule(10.0, [&] { fired.push_back("chained-at-boundary"); });
    loop.ScheduleAfter(0.0, [&] { fired.push_back("after-zero"); });
  });
  loop.RunUntil(10.0);
  EXPECT_EQ(fired, (std::vector<std::string>{"first", "chained-at-boundary",
                                             "after-zero"}));
  EXPECT_DOUBLE_EQ(loop.Now(), 10.0);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, PastSchedulingThrows) {
  EventLoop loop;
  loop.Schedule(10.0, [] {});
  loop.Run();
  EXPECT_THROW(loop.Schedule(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.ScheduleAfter(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.Schedule(20.0, nullptr), std::invalid_argument);
  EXPECT_THROW(loop.RunUntil(5.0), std::invalid_argument);
  // NaN compares false both ways, so it must not slip past the guards into
  // the heap's ordering or onto the clock.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(loop.Schedule(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.ScheduleAfter(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.RunUntil(nan), std::invalid_argument);
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_DOUBLE_EQ(loop.Now(), 10.0);
}

TEST(EventLoop, StepReturnsFalseWhenEmpty) {
  EventLoop loop;
  EXPECT_FALSE(loop.Step());
  loop.Schedule(1.0, [] {});
  EXPECT_TRUE(loop.Step());
  EXPECT_FALSE(loop.Step());
}

// Property: random schedules (with deliberate equal-time ties) always fire
// in (time, insertion) order, with the clock pinned to each event's time.
TEST(EventLoopProperties, RandomSchedulesFireInTimeInsertionOrder) {
  proptest::Check("schedule-order", [](Rng& rng) {
    EventLoop loop;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 99));
    struct Fired {
      double at;
      int index;
    };
    std::vector<Fired> fired;
    for (int i = 0; i < n; ++i) {
      // A coarse time grid forces plenty of equal-time ties.
      const double at = static_cast<double>(rng.UniformInt(0, 20));
      loop.Schedule(at, [&fired, &loop, at, i] {
        EXPECT_DOUBLE_EQ(loop.Now(), at);
        fired.push_back({at, i});
      });
    }
    loop.Run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(loop.processed_count(), static_cast<std::uint64_t>(n));
    for (std::size_t i = 0; i + 1 < fired.size(); ++i) {
      const bool ordered =
          fired[i].at < fired[i + 1].at ||
          (fired[i].at == fired[i + 1].at && fired[i].index < fired[i + 1].index);
      EXPECT_TRUE(ordered) << "events " << i << " and " << i + 1
                           << " fired out of (time, insertion) order";
    }
  });
}

// Property: Cancel() removes exactly the cancelled events, keeps
// pending_count() in sync, and reports false for events that already ran or
// were already cancelled.
TEST(EventLoopProperties, RandomCancelsAreExact) {
  proptest::Check("cancel-semantics", [](Rng& rng) {
    EventLoop loop;
    const int n = 60;
    std::vector<EventId> ids;
    std::vector<bool> cancelled(n, false), fired(n, false);
    for (int i = 0; i < n; ++i) {
      const double at = static_cast<double>(rng.UniformInt(0, 200));
      ids.push_back(loop.Schedule(at, [&fired, i] { fired[i] = true; }));
    }
    EXPECT_EQ(loop.pending_count(), static_cast<std::size_t>(n));
    std::size_t live = static_cast<std::size_t>(n);
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(0.4)) continue;
      EXPECT_TRUE(loop.Cancel(ids[static_cast<std::size_t>(i)]));
      EXPECT_FALSE(loop.Cancel(ids[static_cast<std::size_t>(i)]));  // No-op.
      cancelled[static_cast<std::size_t>(i)] = true;
      --live;
    }
    EXPECT_EQ(loop.pending_count(), live);
    loop.Run();
    EXPECT_EQ(loop.pending_count(), 0u);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(fired[static_cast<std::size_t>(i)],
                !cancelled[static_cast<std::size_t>(i)]);
      EXPECT_FALSE(loop.Cancel(ids[static_cast<std::size_t>(i)]));
    }
  });
}

// Property: chopping a run into random RunUntil() segments never changes
// what fires or in which order, relative to a single Run().
TEST(EventLoopProperties, SegmentedRunUntilMatchesSingleRun) {
  proptest::Check("segmented-run", [](Rng& rng) {
    const int n = 40;
    std::vector<double> times;
    for (int i = 0; i < n; ++i) {
      times.push_back(static_cast<double>(rng.UniformInt(0, 100)));
    }

    auto schedule_all = [&times](EventLoop& loop, std::vector<int>& order) {
      for (int i = 0; i < static_cast<int>(times.size()); ++i) {
        loop.Schedule(times[static_cast<std::size_t>(i)],
                      [&order, i] { order.push_back(i); });
      }
    };

    EventLoop whole;
    std::vector<int> whole_order;
    schedule_all(whole, whole_order);
    whole.Run();

    EventLoop segmented;
    std::vector<int> segmented_order;
    schedule_all(segmented, segmented_order);
    double cut = 0.0;
    while (cut < 100.0) {
      cut += rng.Uniform(1.0, 30.0);
      segmented.RunUntil(std::min(cut, 100.0));
    }
    segmented.Run();

    EXPECT_EQ(segmented_order, whole_order);
    EXPECT_EQ(segmented.processed_count(), whole.processed_count());
  });
}

// The loop's public contract implemented the obvious way, as the oracle of
// the differential test below: an ordered map on (time, scheduling
// sequence), a linear scan to cancel, and ids issued 1, 2, 3, ...
class OracleLoop {
 public:
  EventId Schedule(double at_ms, std::function<void()> cb) {
    if (!(at_ms >= now_ms_)) throw std::invalid_argument("past or NaN");
    const EventId id = next_id_++;
    pending_.emplace(std::make_pair(at_ms, next_seq_++),
                     std::make_pair(id, std::move(cb)));
    return id;
  }
  bool Cancel(EventId id) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->second.first == id) {
        pending_.erase(it);
        return true;
      }
    }
    return false;
  }
  bool Step() {
    if (pending_.empty()) return false;
    const auto head = pending_.begin();
    now_ms_ = head->first.first;
    const std::function<void()> cb = std::move(head->second.second);
    pending_.erase(head);
    ++processed_;
    cb();
    return true;
  }
  void RunUntil(double until_ms) {
    if (!(until_ms >= now_ms_)) throw std::invalid_argument("past or NaN");
    while (!pending_.empty() && pending_.begin()->first.first <= until_ms) {
      Step();
    }
    now_ms_ = until_ms;
  }
  double Now() const { return now_ms_; }
  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t processed_count() const { return processed_; }

 private:
  std::map<std::pair<double, std::uint64_t>,
           std::pair<EventId, std::function<void()>>>
      pending_;
  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t processed_ = 0;
};

// One observable step of a run: an op code, an operand, and a time.
using LoopRecord = std::tuple<char, std::uint64_t, double>;

// Drives a loop (the real one or the oracle) with random operations drawn
// from `seed`: in-order, out-of-order and at-Now() schedules, cancels of
// pending, fired, cancelled, never-issued and 0 ids, Step() and RunUntil()
// segments, with schedules and cancels also made from inside callbacks.
// While two loops fire in the same order they draw the same operations, so
// equal records mean equal behaviour.
template <typename Loop>
class LoopDriver {
 public:
  explicit LoopDriver(std::uint64_t seed) : rng_(seed) {}

  std::vector<LoopRecord> Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::int64_t op = rng_.UniformInt(0, 9);
      if (op < 4) {
        ScheduleOne();
      } else if (op < 6) {
        CancelOne();
      } else if (op < 8) {
        const bool stepped = loop_.Step();
        log_.emplace_back('S', stepped ? 1 : 0, loop_.Now());
      } else {
        const double until =
            loop_.Now() + static_cast<double>(rng_.UniformInt(0, 12));
        loop_.RunUntil(until);
        log_.emplace_back('U', 0, until);
      }
      LogState();
    }
    while (loop_.Step()) {
    }
    LogState();
    return log_;
  }

 private:
  void LogState() {
    log_.emplace_back('n', loop_.pending_count(), loop_.Now());
    log_.emplace_back('p', loop_.processed_count(), 0.0);
  }

  void ScheduleOne() {
    double at = loop_.Now();  // Kind 2: exactly Now().
    const std::int64_t kind = rng_.UniformInt(0, 2);
    if (kind == 0) {
      // At or after every time scheduled so far (ties included).
      at = std::max(latest_, loop_.Now()) +
           static_cast<double>(rng_.UniformInt(0, 3));
    } else if (kind == 1) {
      at = loop_.Now() + static_cast<double>(rng_.UniformInt(0, 20));
    }
    latest_ = std::max(latest_, at);
    const std::uint64_t token = issued_.size();
    const EventId id = loop_.Schedule(at, [this, token] { OnFire(token); });
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen_.insert(id).second) << "id " << id << " issued twice";
    issued_.push_back(id);
    log_.emplace_back('s', token, at);
  }

  void CancelOne() {
    const std::int64_t kind = rng_.UniformInt(0, 3);
    EventId id = 0;  // Kind 0: the id callers use for "no event".
    if (kind >= 1 && !issued_.empty()) {
      id = issued_[static_cast<std::size_t>(rng_.UniformInt(
          0, static_cast<std::int64_t>(issued_.size()) - 1))];
      if (kind == 3) {
        // Never issued: near an issued id (its high word bumped), stepping
        // past any id this loop has issued.
        id += EventId{1} << 32;
        while (seen_.count(id) > 0) ++id;
      }
    }
    log_.emplace_back('c', loop_.Cancel(id) ? 1 : 0,
                      static_cast<double>(kind));
  }

  void OnFire(std::uint64_t token) {
    log_.emplace_back('f', token, loop_.Now());
    // Fewer than one child per event on average, so runs stay finite.
    if (rng_.Bernoulli(0.45)) ScheduleOne();
    if (rng_.Bernoulli(0.3)) CancelOne();
  }

  Loop loop_;
  Rng rng_;
  double latest_ = 0.0;
  std::vector<EventId> issued_;
  std::set<EventId> seen_;
  std::vector<LoopRecord> log_;
};

// Differential property: under random operations the loop fires the same
// events at the same times as the oracle, and agrees with it on Now(),
// pending_count(), processed_count(), Step() and every Cancel() result.
// Some orderings need a rare sequence of cancels and advances (the one in
// EqualTimesRunInScheduleOrderAcrossCancels first shows up after about a
// hundred cases), hence the case count.
TEST(EventLoopProperties, MatchesOrderedMapOracle) {
  const auto same_as_oracle = [](Rng& rng) {
    const std::uint64_t seed = rng.NextU64();
    const int ops = 50 + static_cast<int>(rng.UniformInt(0, 400));
    const auto got = LoopDriver<EventLoop>(seed).Run(ops);
    const auto want = LoopDriver<OracleLoop>(seed).Run(ops);
    const auto [got_end, want_end] =
        std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    ASSERT_TRUE(got_end == got.end() && want_end == want.end())
        << "first difference at record " << (got_end - got.begin()) << " of "
        << got.size() << " (oracle " << want.size() << ")";
  };
  proptest::Check("oracle", same_as_oracle,
                  proptest::Config{.iterations = 400});
}

// Two interleaved timers that reschedule themselves from inside their own
// callbacks, as the broker's consumers do, fire in closed form: event i is
// timer i % 2 at (i / 2 + 1) * period, ties in scheduling order. The FIFO's
// consumed entries must be released for such a run to stay small; its
// memory is measured outside the test suite (CHANGES.md), not here.
TEST(EventLoop, InterleavedSelfReschedulingTimersFireInClosedForm) {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr double kPeriod = 18.0;
  EventLoop loop;
  std::uint64_t fired = 0;
  std::uint64_t mismatches = 0;
  std::function<void(int)> arm = [&](int timer) {
    loop.ScheduleAfter(kPeriod, [&, timer] {
      const double want = static_cast<double>(fired / 2 + 1) * kPeriod;
      if (static_cast<std::uint64_t>(timer) != fired % 2 ||
          loop.Now() != want) {
        ++mismatches;
      }
      ++fired;
      if (fired + loop.pending_count() < kEvents) arm(timer);
    });
  };
  arm(0);
  arm(1);
  loop.Run();
  EXPECT_EQ(fired, kEvents);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(loop.processed_count(), kEvents);
  EXPECT_DOUBLE_EQ(loop.Now(), static_cast<double>(kEvents / 2) * kPeriod);
}

TEST(SimServer, ProcessesFifoWithConcurrencyOne) {
  EventLoop loop;
  // Deterministic 10 ms service.
  SimServer server("s", loop, 1, [](int, Rng&) { return 10.0; }, Rng(1));
  std::vector<JobTiming> timings;
  auto record = [&](const JobTiming& t) { timings.push_back(t); };
  loop.Schedule(0.0, [&] { server.Submit(record); });
  loop.Schedule(0.0, [&] { server.Submit(record); });
  loop.Schedule(0.0, [&] { server.Submit(record); });
  loop.Run();
  ASSERT_EQ(timings.size(), 3u);
  EXPECT_DOUBLE_EQ(timings[0].finish_ms, 10.0);
  EXPECT_DOUBLE_EQ(timings[1].finish_ms, 20.0);
  EXPECT_DOUBLE_EQ(timings[2].finish_ms, 30.0);
  EXPECT_DOUBLE_EQ(timings[2].QueueDelayMs(), 20.0);
  EXPECT_EQ(server.completed_count(), 3u);
}

TEST(SimServer, ParallelSlotsOverlap) {
  EventLoop loop;
  SimServer server("s", loop, 3, [](int, Rng&) { return 10.0; }, Rng(1));
  int done = 0;
  loop.Schedule(0.0, [&] {
    for (int i = 0; i < 3; ++i) server.Submit([&](const JobTiming&) { ++done; });
  });
  loop.RunUntil(10.0);
  EXPECT_EQ(done, 3);  // All three finished together at t=10.
}

TEST(SimServer, InServiceCountVisibleToServiceFunction) {
  EventLoop loop;
  std::vector<int> observed;
  SimServer server(
      "s", loop, 2,
      [&](int in_service, Rng&) {
        observed.push_back(in_service);
        return 5.0;
      },
      Rng(1));
  loop.Schedule(0.0, [&] {
    server.Submit([](const JobTiming&) {});
    server.Submit([](const JobTiming&) {});
    server.Submit([](const JobTiming&) {});
  });
  loop.Run();
  ASSERT_EQ(observed.size(), 3u);
  // Two slots fill immediately (in-service 1 then 2); the queued third job
  // starts once a slot frees, alongside the still-running other job.
  EXPECT_EQ(observed[0], 1);
  EXPECT_EQ(observed[1], 2);
  EXPECT_EQ(observed[2], 2);
}

TEST(SimServer, StatsAccumulate) {
  EventLoop loop;
  SimServer server("s", loop, 1, [](int, Rng&) { return 7.0; }, Rng(1));
  loop.Schedule(0.0, [&] {
    server.Submit([](const JobTiming&) {});
    server.Submit([](const JobTiming&) {});
  });
  loop.Run();
  EXPECT_EQ(server.service_delay_stats().count(), 2u);
  EXPECT_DOUBLE_EQ(server.service_delay_stats().mean(), 7.0);
  EXPECT_DOUBLE_EQ(server.total_delay_stats().max(), 14.0);
}

TEST(SimServer, ExtraServiceDelayRejectsNegativeAndNonFinite) {
  EventLoop loop;
  SimServer server("s", loop, 1, [](int, Rng&) { return 10.0; }, Rng(1));
  server.SetExtraServiceDelayMs(5.0);
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    try {
      server.SetExtraServiceDelayMs(bad);
      ADD_FAILURE() << "expected std::invalid_argument for " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("extra_ms"), std::string::npos)
          << e.what();
    }
    EXPECT_DOUBLE_EQ(server.extra_service_delay_ms(), 5.0) << bad;
  }
  JobTiming timing;
  server.Submit([&](const JobTiming& t) { timing = t; });
  loop.Run();
  EXPECT_DOUBLE_EQ(timing.ServiceDelayMs(), 15.0);
}

TEST(SimServer, InvalidConstructionThrows) {
  EventLoop loop;
  EXPECT_THROW(SimServer("s", loop, 0, [](int, Rng&) { return 1.0; }, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(SimServer("s", loop, 1, nullptr, Rng(1)),
               std::invalid_argument);
  SimServer ok("s", loop, 1, [](int, Rng&) { return 1.0; }, Rng(1));
  EXPECT_THROW(ok.Submit(nullptr), std::invalid_argument);
}

TEST(ConvexLoadProfile, DelaysGrowWithContention) {
  auto profile = MakeConvexLoadProfile(40.0, 8.0, 1.0, 1.6, 0.0);
  Rng rng(1);
  const double idle = profile(1, rng);
  const double half = profile(4, rng);
  const double full = profile(8, rng);
  EXPECT_LT(idle, half);
  EXPECT_LT(half, full);
  EXPECT_NEAR(full, 80.0, 1e-9);  // base * (1 + alpha) at saturation.
  // Contention is capped: more in-service jobs do not slow service further.
  EXPECT_NEAR(profile(32, rng), 80.0, 1e-9);
}

TEST(ConvexLoadProfile, JitterHasUnitMean) {
  auto profile = MakeConvexLoadProfile(100.0, 50.0, 0.0, 1.0, 0.5);
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += profile(0, rng);
  EXPECT_NEAR(sum / n, 100.0, 2.5);
}

TEST(ConvexLoadProfile, InvalidParamsThrow) {
  EXPECT_THROW(MakeConvexLoadProfile(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(MakeConvexLoadProfile(10.0, 0.0), std::invalid_argument);
  for (const double sigma : {-0.1, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(MakeConvexLoadProfile(10.0, 4.0, 1.0, 1.6, sigma),
                 std::invalid_argument)
        << sigma;
  }
  // A non-finite input is rejected where it enters, by name: a NaN base or
  // alpha would otherwise serve every job in 0 ms.
  const auto expect_rejected = [](double base, double capacity, double alpha,
                                  double beta, const std::string& name) {
    try {
      MakeConvexLoadProfile(base, capacity, alpha, beta, 0.0);
      ADD_FAILURE() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    expect_rejected(bad, 4.0, 1.0, 1.6, "base_ms");
    expect_rejected(10.0, bad, 1.0, 1.6, "capacity");
    expect_rejected(10.0, 4.0, bad, 1.6, "alpha");
    expect_rejected(10.0, 4.0, 1.0, bad, "beta");
  }
  // Finite values that make 1 + alpha * u^beta negative for some
  // utilization u in (0, 1] (TryStart would clamp the negative time to a
  // silent 0-ms service): alpha below -1, and a negative beta.
  expect_rejected(10.0, 4.0, -2.0, 1.6, "alpha");
  expect_rejected(10.0, 4.0, -0.5, -1.0, "beta");
  // The edges stay valid: a fully busy server may serve at no cost (alpha
  // -1), and beta 0 is a constant inflation.
  EXPECT_NO_THROW(MakeConvexLoadProfile(10.0, 4.0, -1.0, 1.6, 0.0));
  EXPECT_NO_THROW(MakeConvexLoadProfile(10.0, 4.0, 1.0, 0.0, 0.0));
}

TEST(ConvexLoadProfile, ZeroJitterDrawsNothing) {
  auto profile = MakeConvexLoadProfile(40.0, 8.0, 1.0, 1.6, 0.0);
  Rng used(3);
  Rng untouched(3);
  EXPECT_EQ(profile(8, used), 80.0);
  EXPECT_EQ(used.NextU64(), untouched.NextU64());
}

TEST(Determinism, SameSeedSameSchedule) {
  auto run = [](std::uint64_t seed) {
    EventLoop loop;
    SimServer server("s", loop, 2,
                     MakeConvexLoadProfile(10.0, 20.0, 3.0, 2.0, 0.4),
                     Rng(seed));
    std::vector<double> finishes;
    Rng arrivals(seed + 1);
    double t = 0.0;
    for (int i = 0; i < 200; ++i) {
      t += arrivals.ExponentialMean(5.0);
      loop.Schedule(t, [&] {
        server.Submit(
            [&](const JobTiming& jt) { finishes.push_back(jt.finish_ms); });
      });
    }
    loop.Run();
    return finishes;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace e2e
