#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
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
// re-reads the heap top after every callback, so boundary-time chains drain
// before the clock pins to until_ms.
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
